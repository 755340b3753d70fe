"""The in-process simulation workloads: ``tree-hot`` and ``stream-cold``.

Both drive the library only through its public API (``run_spec``,
``run_plan``, ``open_session``, ``open_store``).  A round runs every cell
once with the result cache off (a miss), each followed by three one-cell
``run_plan`` calls against a private result cache holding that cell (the
hits), then times three streamed runs of the first cell up to their first
epoch event.  Rounds repeat until the time budget is spent; each round is
identical work, so per-round figures are comparable across rounds and
runs.

``tree-hot`` reads a trace store pre-warmed during set-up, so stream
generation is bypassed and the counter-tree schemes dominate.
``stream-cold`` empties the trace store after every round and gives each
cell its own seed, so every cell generates and writes its streams.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from perfbench.common import Round, call, derive_seed, end_to_end, \
    rounds_until, sample_note, timed_setups
from perfbench.gate import cell_stats
from perfbench.spans import Tracer, layer_table, name_totals
from perfbench.stats import percentile

#: Skewed workloads with phase drift: many counter-tree splits/harvests.
TREE_HOT_WORKLOADS = ("black", "face", "comm1", "MTC")
#: The flattest streaming workloads: few mitigation events per access.
STREAM_COLD_WORKLOADS = ("libq", "str", "leslie", "comm4")

#: Near-full fidelity (the ``full`` verify point): scale 4, 2 banks.
FIDELITY = {"refresh_threshold": 8192, "scale": 4.0, "n_banks": 2,
            "n_intervals": 2}
#: The paper's PRA probability at T=8K (Figure 1 reliability).
PRA_PROBABILITY = 0.005

#: cached one-cell plans after each cell.  Spread over the round, the
#: hits sample host speed, which swings on a scale of seconds, at as many
#: times as there are cells.
HIT_REPEATS = 3
#: streamed runs of the first cell per round, each to its first epoch
PROBES = 3
#: accesses per ``Session.step`` while waiting for the first epoch event
PROBE_STEP = 4096


def _schemes(workload: str):
    from repro import SchemeSpec

    if workload == "tree-hot":
        return [SchemeSpec.create("prcat", "PRCAT_64", n_counters=64),
                SchemeSpec.create("drcat", "DRCAT_64", n_counters=64)]
    return [SchemeSpec.create("pra", "PRA", probability=PRA_PROBABILITY),
            SchemeSpec.create("sca", "SCA_128", n_counters=128)]


def cells(workload: str, seed: int) -> list[tuple[str, object]]:
    """The ``(label, ExperimentSpec)`` cells of one round, in run order.

    ``tree-hot`` cells of one workload share a seed, hence a stream, so
    the pre-warmed store serves both schemes; ``stream-cold`` cells each
    get their own seed, so no cell reads another's stream.
    """
    from repro import ExperimentSpec

    names = TREE_HOT_WORKLOADS if workload == "tree-hot" \
        else STREAM_COLD_WORKLOADS
    out = []
    for name in names:
        for scheme in _schemes(workload):
            label = f"{name}/{scheme.display_label}"
            spec_seed = derive_seed(seed, workload) if workload == "tree-hot" \
                else derive_seed(seed, workload, label)
            out.append((label, ExperimentSpec(scheme=scheme, workload=name,
                                              seed=spec_seed, **FIDELITY)))
    return out


def _set_store(root: Path):
    """Point the trace store at ``root``; returns the store object."""
    from repro.sim.tracestore import open_store

    os.environ["REPRO_TRACE_STORE_DIR"] = str(root)
    return open_store()


def _import_s(env: dict) -> float:
    """Wall time of a fresh interpreter importing the simulator stack."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.experiments, repro.sim.simulator"],
        env=env, check=True,
    )
    return time.perf_counter() - start


def _setup_once(workload: str, specs, root: Path, env: dict) -> float:
    """Seconds of one set-up: fresh-interpreter imports plus the store.

    ``tree-hot`` pre-warms its streams by running a PRA cell on each
    stream (stream identity excludes the scheme); ``stream-cold`` runs one
    tiny cell so lazy imports are paid before timing, then empties the
    store.
    """
    from dataclasses import replace

    from repro import SchemeSpec, run_spec

    elapsed = _import_s(env)
    start = time.perf_counter()
    store = _set_store(root)
    pra = SchemeSpec.create("pra", probability=PRA_PROBABILITY)
    if workload == "tree-hot":
        seen = set()
        for _label, spec in specs:
            if spec.workload not in seen:
                seen.add(spec.workload)
                run_spec(replace(spec, scheme=pra))
    else:
        run_spec(replace(specs[0][1], scheme=pra, scale=96.0,
                         n_intervals=1, n_banks=1))
        store.clear()
    return elapsed + time.perf_counter() - start


class SimWorkload:
    """One run of ``tree-hot`` or ``stream-cold``."""

    def __init__(self, name: str, seed: int, gate, work: Path,
                 env: dict) -> None:
        from repro import ResultCache

        self.name = name
        self.gate = gate
        self.work = work
        self.env = env
        self.specs = cells(name, seed)
        self.hit_cache = ResultCache(work / "results")
        #: labels whose result ``hit_cache`` holds
        self.cached: set[str] = set()
        self.tracer: Tracer | None = None
        self.bytes_written: list[int] = []

    # -- phases ------------------------------------------------------------

    def setup(self) -> list[tuple[float, float]]:
        """Set up several times (:func:`timed_setups`); the last store
        stays live."""
        def once(i: int) -> float:
            if i:
                _set_store(self.work / f"traces-{i - 1}").clear()
            return _setup_once(self.name, self.specs,
                               self.work / f"traces-{i}", self.env)

        return timed_setups(once)

    def run_round(self, _index: int = 0) -> Round:
        """Each cell's miss and hits, then the streamed runs; checks
        outside timing.

        A calibration sample is taken before every cell, before its hits,
        before every streamed run and at the end.
        """
        from repro import open_session, run_spec
        from repro.sim.tracestore import open_store

        rnd = Round()
        for label, spec in self.specs:
            rnd.calibrate()
            if self.tracer is not None:
                self.tracer.ctx = label
            with rnd.timing():
                t0 = time.perf_counter()
                try:
                    result = call(self.tracer, "experiments.run_spec",
                                  run_spec, spec)
                except Exception as exc:  # counted, reported, run goes on
                    self.gate.op(False, f"{label}: {exc!r}")
                    continue
            rnd.sample("miss", label, (time.perf_counter() - t0) * 1e3)
            stats = cell_stats(result)
            rnd.acts += stats["accesses"]
            error = self.gate.cell(label, stats)
            self.gate.op(error is None, error)
            self._hits(rnd, label, spec, result, stats)

        if self.name == "stream-cold":
            # Every read must miss, the streamed run's included.
            store = open_store()
            self.bytes_written.append(store.stats()["bytes"])
            store.clear()

        probe_label, probe_spec = self.specs[0]
        if self.tracer is not None:
            self.tracer.ctx = probe_label
        for _ in range(PROBES):
            fired: list[float] = []
            rnd.calibrate()
            with rnd.timing():
                t0 = time.perf_counter()
                session = call(self.tracer, "api.open_session",
                               open_session, probe_spec)
                session.on_epoch(
                    lambda _event, fired=fired: fired.append(
                        time.perf_counter()))
                while not fired and not session.done:
                    call(self.tracer, "api.step", session.step, PROBE_STEP)
            if self.gate.op(bool(fired),
                            f"{probe_label}: streamed run emitted no epoch"):
                rnd.sample("first", probe_label, (fired[0] - t0) * 1e3)
            if self.name == "stream-cold":
                open_store().clear()
        rnd.calibrate()
        return rnd

    def _hits(self, rnd: Round, label: str, spec, result,
              stats: dict) -> None:
        """:data:`HIT_REPEATS` cached one-cell plans of the cell just run;
        the first round puts the cell's result in the cache."""
        from repro import run_plan

        if label not in self.cached:
            self.hit_cache.put(spec, result)
            self.cached.add(label)
        hits = []
        rnd.calibrate()
        with rnd.timing():
            for _ in range(HIT_REPEATS):
                t0 = time.perf_counter()
                hits.append(call(self.tracer, "experiments.run_plan",
                                 run_plan, [spec], cache=self.hit_cache))
                rnd.sample("hit", "cell", (time.perf_counter() - t0) * 1e3)
        for got in hits:
            self.gate.op([cell_stats(r) for r in got] == [stats],
                         f"{label}: cached result differs from the run")

    def scalar_check(self) -> None:
        """Re-run the first cell on the ``scalar`` reference engine.

        That is PRCAT on ``tree-hot`` and PRA, whose events emit two
        refresh commands, on ``stream-cold``.
        """
        from dataclasses import replace

        from repro import run_spec

        label, spec = self.specs[0]
        want = cell_stats(run_spec(spec))
        got = cell_stats(run_spec(replace(spec, engine="scalar")))
        self.gate.op(got == want, f"{label}: scalar engine gives {got}, "
                                  f"batched {want}")

    # -- tracing -----------------------------------------------------------

    def install_tracer(self) -> Tracer:
        """Wrap each layer's public entry points with timing spans."""
        import repro.sim.session as session_mod
        import repro.sim.simulator as simulator_mod
        from repro import ResultCache
        from repro.core.cat import PRCATScheme
        from repro.core.drcat import DRCATScheme
        from repro.core.pra import PRAScheme
        from repro.core.sca import SCAScheme
        from repro.dram.bank import BankState
        from repro.dram.memory_system import MemorySystem
        from repro.sim.tracestore import TraceStore
        from repro.workloads.synthetic import StreamModel

        tracer = Tracer()
        counts = tracer.counts

        def count(key):
            def on_result(result):
                counts[key] += bool(result)
            return on_result

        tracer.wrap(StreamModel, "sample", "workloads.sample")
        tracer.wrap(StreamModel, "phase_layout", "workloads.phase_layout")
        tracer.wrap(session_mod, "interarrival_times_ns",
                    "workloads.interarrival_times_ns")
        tracer.wrap(TraceStore, "get", "sim.tracestore.get",
                    on_result=count("tracestore_hits"))
        tracer.wrap(TraceStore, "put", "sim.tracestore.put")
        tracer.wrap(simulator_mod.TraceDrivenSimulator, "run", "sim.run")
        tracer.wrap(session_mod.SessionCore, "advance", "sim.advance")
        for cls in (PRCATScheme, DRCATScheme, PRAScheme, SCAScheme):
            tracer.wrap(cls, "access_batch", "core.access_batch")
        for cls in (PRCATScheme, DRCATScheme):
            tracer.wrap(cls, "access", "core.access",
                        on_result=count("replay_cmds"))
        tracer.wrap(BankState, "serve_accesses_batch",
                    "dram.serve_accesses_batch")
        tracer.wrap(BankState, "serve_access", "dram.serve_access")
        tracer.wrap(MemorySystem, "apply_refresh", "dram.apply_refresh")
        tracer.wrap(simulator_mod, "compute_cmrpo", "energy.compute_cmrpo")
        tracer.wrap(ResultCache, "get", "experiments.cache.get")
        self.tracer = tracer
        return tracer


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: Tracer, traced: list, untraced: list,
                  bytes_written: list) -> tuple[dict, dict]:
    """Per-round per-layer metrics and the layer table of a traced run.

    Seconds are scaled to the reference speed by the traced rounds' mean
    :attr:`Round.scale`; counts are per round.
    """
    n = len(traced)
    per_s = sum(r.scale for r in traced) / n / n
    table = layer_table(tracer.spans, sum(r.wall_s for r in traced))
    names = name_totals(tracer.spans)
    counts = tracer.counts

    def total(name, key="total_s"):
        return names.get(name, {}).get(key, 0)

    def layer(name, key="self_s"):
        return table.get(name, {}).get(key, 0.0)

    cells_s = [(s[2] - s[1]) * per_s * n for s in tracer.spans
               if s[0] == "experiments.run_spec"]
    replays = total("core.access", "calls")
    gets = total("sim.tracestore.get", "calls")
    metrics = {
        "core.self_s": layer("core") * per_s,
        "core.batch_self_s": total("core.access_batch", "self_s") * per_s,
        "core.replay_s": total("core.access") * per_s,
        "core.replays": replays / n,
        "core.replay_cmd_ratio":
            counts["replay_cmds"] / replays if replays else 0.0,
        "workloads.self_s": layer("workloads") * per_s,
        "workloads.calls": layer("workloads", "calls") / n,
        "sim.tracestore.get_s": total("sim.tracestore.get") * per_s,
        "sim.tracestore.gets": gets / n,
        "sim.tracestore.hit_ratio":
            counts["tracestore_hits"] / gets if gets else 0.0,
        "sim.tracestore.put_s": total("sim.tracestore.put") * per_s,
        "sim.tracestore.bytes_written":
            sum(bytes_written) / len(bytes_written) if bytes_written else 0,
        "dram.self_s": layer("dram") * per_s,
        "dram.bank_s": (total("dram.serve_accesses_batch")
                        + total("dram.serve_access")) * per_s,
        "dram.bank_calls": (total("dram.serve_accesses_batch", "calls")
                            + total("dram.serve_access", "calls")) / n,
        "dram.refresh_s": total("dram.apply_refresh") * per_s,
        "dram.refresh_cmds": total("dram.apply_refresh", "calls") / n,
        "sim.self_s": layer("sim") * per_s,
        "energy.finalize_s": total("energy.compute_cmrpo") * per_s,
        "experiments.self_s": (layer("experiments")
                               + layer("experiments.cache")) * per_s,
        "experiments.cell_p50_s": percentile(cells_s, 50.0),
        "experiments.cell_p90_s": percentile(cells_s, 90.0),
        "other.self_s": layer("other") * per_s,
        "trace.overhead_cpu_s":
            percentile([r.cpu_s * r.scale for r in traced], 50.0)
            - percentile([r.cpu_s * r.scale for r in untraced], 50.0),
    }
    return metrics, table


def run(name: str, seed: int, seconds: float, trace: bool, gate,
        work: Path, env: dict, spans_path: Path | None) -> tuple[dict, list]:
    """One benchmark run; returns ``(metrics, report lines)``."""
    bench = SimWorkload(name, seed, gate, work, env)
    setups = bench.setup()
    traced: list[Round] = []
    tracer = None
    start = time.perf_counter()
    try:
        untraced = rounds_until(seconds / 2 if trace else seconds, start,
                                bench.run_round)
        if trace:
            tracer = bench.install_tracer()
            traced = rounds_until(seconds, start, bench.run_round)
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    rss = peak_rss_mb()
    bench.scalar_check()
    lines = [f"rounds: {len(untraced)} untraced, {len(traced)} traced; "
             f"{len(bench.specs)} cells per round; setup repeats "
             f"{', '.join(f'{s:.3f}x{k:.3f}' for s, k in setups)} s"]
    lines.append("round cpu s (host) x scale: " + " ".join(
        f"{r.cpu_s:.3f}x{r.scale:.3f}" for r in untraced + traced))
    if not trace:
        lines.append(sample_note(untraced))
        return end_to_end(setups, untraced, rss), lines
    metrics, table = layer_metrics(tracer, traced, untraced,
                                   bench.bytes_written)
    if spans_path is not None:
        tracer.write(spans_path)
        lines.append(f"spans -> {spans_path} ({len(tracer.spans)} spans)")
    lines.append("layer table (traced rounds, per round):")
    lines.append(f"  {'layer':<22}{'self s':>10}{'share':>9}{'calls':>12}")
    for layer_name, row in sorted(table.items(),
                                  key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {layer_name:<22}{row['self_s'] / len(traced):>10.4f}"
                     f"{row['share']:>9.1%}"
                     f"{row['calls'] / len(traced):>12.0f}")
    return metrics, lines
