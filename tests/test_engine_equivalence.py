"""Batched-vs-scalar engine equivalence suite.

The batched engine's contract is *bit-identical* results: for every
scheme, workload, and attack mix, a batched run must produce exactly the
same :class:`~repro.sim.metrics.RunTotals` (refresh commands, rows
refreshed, stall and busy nanoseconds), the same merged scheme
statistics (splits, merges, resets, activations), and the same SRAM
read counts as the per-event scalar loop.  Anything short of exact
equality is an engine bug, not noise — see DESIGN.md, "Batched engine".
"""

import dataclasses
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.prng import CountingPRNG, TrueRandomPRNG
from repro.core.registry import scheme_names
from repro.dram.config import DUAL_CORE_2CH
from repro.experiments import ExperimentSpec, SchemeSpec
from repro.experiments.run import run_spec
from repro.sim.runner import simulate_attack, simulate_workload
from repro.sim.session import SessionCore
from repro.sim.simulator import TraceDrivenSimulator
from repro.workloads.suites import get_workload

SCHEMES = ("pra", "sca", "prcat", "drcat", "ccache")
#: Skew spectrum: extreme (black), moderate (mum), near-uniform (libq).
WORKLOADS = ("black", "mum", "libq")
#: Multi-interval, multi-bank, and a scale whose threshold still splits.
KNOBS = dict(scale=64.0, n_banks=2, n_intervals=3)


def _run(engine: str, scheme: str, workload: str):
    sim = TraceDrivenSimulator(ExperimentSpec(
        scheme=SchemeSpec(scheme),
        system=DUAL_CORE_2CH,
        engine=engine,
        **KNOBS,
    ))
    result = sim.run(get_workload(workload))
    return result, sim._last_memory


def _fingerprint(memory) -> dict:
    """Every engine-observable total, including tree internals."""
    out = dict(memory.scheme_stats())
    out["total_refresh_commands"] = memory.total_refresh_commands
    out["total_rows_refreshed"] = memory.total_rows_refreshed
    out["total_stall_ns"] = memory.total_stall_ns
    out["total_mitigation_busy_ns"] = memory.total_mitigation_busy_ns
    out["total_activations"] = memory.total_activations
    out["last_completion_ns"] = memory.last_completion_ns
    for bank, state in enumerate(memory.banks):
        out[f"bank{bank}_free_at"] = state.free_at_ns
        out[f"bank{bank}_backlog"] = state.refresh_backlog_rows
        out[f"bank{bank}_escalations"] = state.escalations
    for bank, scheme in enumerate(memory.schemes):
        tree = getattr(scheme, "tree", None)
        if tree is not None:
            out[f"bank{bank}_sram_reads"] = tree.total_sram_reads
            out[f"bank{bank}_partition"] = tuple(tree.partition())
            out[f"bank{bank}_counts"] = tuple(tree._count)
            out[f"bank{bank}_weights"] = tuple(tree._weight)
    return out


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_bit_identical_workload_runs(scheme, workload):
    scalar, scalar_mem = _run("scalar", scheme, workload)
    batched, batched_mem = _run("batched", scheme, workload)
    assert scalar.totals == batched.totals
    assert _fingerprint(scalar_mem) == _fingerprint(batched_mem)
    assert scalar.cmrpo == batched.cmrpo
    assert scalar.eto == batched.eto


@pytest.mark.parametrize("scheme", SCHEMES)
def test_bit_identical_attack_runs(scheme):
    results = {}
    for engine in ("scalar", "batched"):
        results[engine] = simulate_attack(
            "kernel01",
            "heavy",
            scheme,
            benign="libq",
            scale=64.0,
            n_banks=2,
            n_intervals=2,
            engine=engine,
        )
    assert results["scalar"].totals == results["batched"].totals


def test_epoch_boundary_state_identical():
    """PRCAT's epoch reset happens at the same point in both engines."""
    for engine in ("scalar", "batched"):
        _, memory = _run(engine, "prcat", "mum")
        resets = memory.scheme_stats()["resets"]
        # 3 intervals -> 2 interior boundaries per active bank.
        assert resets == 2 * KNOBS["n_banks"]


def test_trng_batch_draws_match_scalar_draws():
    """The PCG64 bulk draw is stream-equivalent to sequential draws."""
    a, b = TrueRandomPRNG(seed=99), TrueRandomPRNG(seed=99)
    batch = a.next_bits_batch(9, 257)
    scalars = [b.next_bits(9) for _ in range(257)]
    assert batch.tolist() == scalars


def test_default_prng_batch_fallback_matches():
    """The PRNG base-class batch fallback replays scalar draws."""
    a, b = CountingPRNG(3), CountingPRNG(3)
    batch = a.next_bits_batch(4, 40)
    scalars = [b.next_bits(4) for _ in range(40)]
    assert batch.tolist() == scalars


def test_engine_flag_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(scheme=SchemeSpec("sca"), engine="warp")


def test_runner_plumbs_engine():
    r1 = simulate_workload("mum", "drcat", engine="scalar", scale=128.0,
                           n_banks=1, n_intervals=1)
    r2 = simulate_workload("mum", "drcat", engine="batched", scale=128.0,
                           n_banks=1, n_intervals=1)
    assert r1.totals == r2.totals


# -- engine-level differential: banks, epochs, pauses ------------------------

#: Spec of the drawn-stream differential: 1 ms epochs (scale 64) and a
#: simulated threshold of 32, so a few hundred hot-row accesses per bank
#: refresh, split and merge.
DIFF_SPEC = ExperimentSpec(
    scheme=SchemeSpec("sca"), scale=64.0, refresh_threshold=2048,
    n_banks=4, n_intervals=1,
)
DIFF_EPOCH_NS = 1e6
#: Arrivals sit on a 12.5 ns grid (50 quanta) near each epoch start, so
#: banks tie on timestamps and some accesses land exactly on a boundary.
DIFF_STEP_NS = 12.5


@st.composite
def _drawn_case(draw):
    """Per-bank streams over three epochs, plus pause cuts.

    Each bank draws a size; a drawn seed fills in the arrivals: an
    epoch, a slot on the 12.5 ns grid near its start (slot 0 is the
    boundary itself) and a row from a small hot set shared by all banks.
    """
    n_banks = draw(st.integers(1, 4))
    sizes = draw(st.lists(
        st.sampled_from((0, 1, 40)) | st.integers(200, 600),
        min_size=n_banks, max_size=n_banks,
    ))
    n_hot = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hot = rng.integers(0, 65536, size=n_hot)
    streams = []
    for n in sizes:
        times = np.sort(
            rng.integers(0, 3, size=n) * DIFF_EPOCH_NS
            + rng.integers(0, 41, size=n) * DIFF_STEP_NS
        )
        streams.append((times, rng.choice(hot, size=n).astype(np.int64)))
    cuts = draw(st.lists(
        st.tuples(
            st.none() | st.builds(
                lambda e, k: e * DIFF_EPOCH_NS + k * DIFF_STEP_NS,
                st.integers(0, 3), st.integers(0, 40),
            ),
            st.none() | st.integers(0, 400),
        ),
        max_size=6,
    ))
    return streams, cuts


def _drawn_core(kind: str, engine: str, streams) -> SessionCore:
    """A core whose one loaded interval is exactly ``streams``."""
    params = {"probability": 0.02} if kind == "pra" else {}
    spec = dataclasses.replace(
        DIFF_SPEC, scheme=SchemeSpec.create(kind, **params), engine=engine,
        n_banks=len(streams),
    )
    sim = TraceDrivenSimulator(spec)
    assert sim.epoch_s * 1e9 == DIFF_EPOCH_NS
    core = SessionCore(sim, "drawn", 0.0, lambda bank, interval: None)
    core.interval = 0
    core._install_streams(streams)
    return core


@pytest.mark.parametrize("kind", SCHEMES)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(case=_drawn_case())
def test_engines_match_plain_access_loop_under_pauses(kind, case):
    """Scalar and batched cores, paused at drawn cuts, end bit-identical
    to a plain ``memory.access`` loop over the merged stream.

    The loop merges in ``(time, bank)`` order with Python's stable sort,
    so each bank keeps its own order on ties.  Banks are independent
    between epoch boundaries, so neither engine needs the merged order
    to reach the same state.
    """
    streams, cuts = case
    events = sorted(
        (
            (t, bank, r)
            for bank, (times, rows) in enumerate(streams)
            for t, r in zip(times.tolist(), rows.tolist())
        ),
        key=lambda e: (e[0], e[1]),
    )
    oracle = _drawn_core(kind, "scalar", streams).memory
    for t, bank, row in events:
        oracle.access(t, bank, row)
    expected = _fingerprint(oracle)

    for engine in ("scalar", "batched"):
        core = _drawn_core(kind, engine, streams)
        served = 0
        for until_ns, max_accesses in cuts:
            # Each call serves every pending access before ``until_ns``,
            # up to ``max_accesses`` of them.
            bound = np.inf if until_ns is None else until_ns
            due = sum(
                int(np.count_nonzero(times[c:] < bound))
                for times, c in zip(core._bank_times, core._cursors)
            )
            if max_accesses is not None:
                due = min(due, max_accesses)
            n = core.advance(until_ns=until_ns, max_accesses=max_accesses)
            assert n == due, (engine, until_ns, max_accesses)
            served += n
        served += core.advance()
        assert core.done
        assert served == len(events)
        assert _fingerprint(core.memory) == expected, (engine, kind)


def test_batched_access_batch_rejects_bad_rows():
    """The vectorized row check still rejects out-of-range rows."""
    from repro.core import make_scheme

    for kind in ("sca", "pra", "drcat"):
        scheme = make_scheme(kind, 1024, 128)
        with pytest.raises(ValueError):
            scheme.access_batch(np.array([5, 2048], dtype=np.int64))


# -- deterministic fuzz over every registered scheme ------------------------

#: Per-scheme randomized parameter draws (see :func:`_sample_spec`).
FUZZ_DRAWS = 2

#: Scheme-parameter samplers for the fuzzed axis.  Only knobs that
#: change the hot-loop shape are varied; anything else is the default.
_PARAM_SAMPLERS = {
    "sca": lambda rng: {"n_counters": int(rng.choice([32, 128, 512]))},
    "prcat": lambda rng: {"n_counters": int(rng.choice([32, 64, 128]))},
    "drcat": lambda rng: {"max_levels": int(rng.choice([8, 11]))},
    "pra": lambda rng: {"probability": float(rng.choice([0.002, 0.01]))},
    "ccache": lambda rng: {},
}


def _sample_spec(scheme: str, rng: np.random.Generator) -> ExperimentSpec:
    """One randomized experiment for ``scheme`` (engine left default).

    Scales stay in the cheap regime (higher scale = fewer accesses) so
    the full fuzz matrix remains tier-1 friendly on the scalar engine.
    """
    params = _PARAM_SAMPLERS.get(scheme, lambda _: {})(rng)
    return ExperimentSpec(
        scheme=SchemeSpec.create(scheme, **params),
        workload=str(rng.choice(["mum", "libq", "black"])),
        refresh_threshold=int(rng.choice([32768, 16384, 8192])),
        scale=float(rng.choice([48.0, 96.0])),
        n_banks=int(rng.choice([1, 2])),
        n_intervals=int(rng.choice([1, 2])),
    )


@pytest.mark.parametrize("scheme", scheme_names())
def test_fuzzed_specs_bit_identical(scheme):
    """Sampled specs agree on both engines, tree internals included."""
    rng = np.random.default_rng(zlib.crc32(scheme.encode("utf-8")))
    for draw in range(FUZZ_DRAWS):
        base = _sample_spec(scheme, rng)
        docs = {}
        prints = {}
        for engine in ("scalar", "batched"):
            sim = TraceDrivenSimulator(
                dataclasses.replace(base, engine=engine)
            )
            docs[engine] = sim.run().to_dict()
            prints[engine] = _fingerprint(sim._last_memory)
        context = f"{scheme} draw {draw}: {base}"
        assert docs["batched"] == docs["scalar"], context
        assert prints["batched"] == prints["scalar"], context


@pytest.mark.parametrize("mode", ("session", "checkpoint"))
@pytest.mark.parametrize("scheme", ("drcat", "ccache", "sca"))
def test_batched_session_modes_match_direct(scheme, mode, monkeypatch):
    """A streaming session, and a checkpoint/restore round-trip, on the
    batched engine."""
    from repro.api import Session

    spec = ExperimentSpec(
        scheme=SchemeSpec(scheme), workload="mum", engine="batched",
        scale=64.0, n_banks=2, n_intervals=3,
    )
    monkeypatch.setenv("REPRO_SESSION_MODE", "direct")
    direct = run_spec(spec)
    if mode == "session":
        routed = Session(spec).result()
    else:
        monkeypatch.setenv("REPRO_SESSION_MODE", mode)
        routed = run_spec(spec)
    assert routed.to_dict() == direct.to_dict()
