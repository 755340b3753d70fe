"""Pieces shared by the simulation and served workloads."""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.stats import median, percentile, tail_note

#: CPU seconds :func:`calibrate` takes at the reference host speed.  Host
#: times are reported scaled to that speed (see :attr:`Round.scale`).
REFERENCE_CAL_S = 0.0135
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

_RNG = np.random.default_rng(7)
_CAL_IDS = _RNG.integers(0, 64, size=2048)
_CAL_TIMES = np.sort(_RNG.random(1 << 15))


def derive_seed(seed: int, *parts) -> int:
    """A 31-bit spec seed derived from the benchmark seed and ``parts``."""
    text = ":".join(str(p) for p in (seed, *parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def calibrate() -> float:
    """CPU seconds of a fixed kernel shaped like the simulator's hot loop.

    The host shares its cores with other tenants, and its speed drifts by
    up to 2x over minutes.  The kernel (an interpreter loop over a dict
    plus small numpy bincount/nonzero/searchsorted calls) is timed between
    operations, and each round's host times are divided by the speed it
    shows.  It touches nothing of the program.  It is timed on this
    thread's CPU clock, so work on the program's own threads cannot move
    the host-speed estimate.
    """
    start = time.thread_time()
    acc: dict = {}
    for i in range(60000):
        acc[i & 255] = acc.get(i & 255, 0) + i
    for _ in range(300):
        counts = np.bincount(_CAL_IDS, minlength=64)
        for c in (counts >= 40).nonzero()[0][:4].tolist():
            (_CAL_IDS == c).nonzero()
        np.searchsorted(_CAL_TIMES, _CAL_TIMES[::97])
    return time.thread_time() - start


def call(tracer, name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, inside a span named ``name`` when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.timed(name, fn, *args, **kwargs)


def timed_setups(setup_once) -> list[tuple[float, float]]:
    """Run ``setup_once(i)`` :data:`SETUP_REPEATS` times.

    ``setup_once`` returns the seconds of its own timed part.  Returns
    ``(seconds, scale)`` pairs, ``scale`` from calibration samples taken
    just before and after each set-up.
    """
    times = []
    for i in range(SETUP_REPEATS):
        before = calibrate()
        elapsed = setup_once(i)
        times.append((elapsed, 2 * REFERENCE_CAL_S / (before + calibrate())))
    return times


def rounds_until(seconds: float, start: float, run_round) -> list:
    """``run_round(i)`` for i = 0, 1, ... until ``seconds`` after ``start``
    (``time.perf_counter()``); at least one round."""
    rounds = []
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(len(rounds)))
    return rounds


@dataclass
class Round:
    """Timings of one round: the workload's fixed unit of work.

    Latency samples are ``(kind, key, ms, cal)``: ``kind`` is ``miss``,
    ``hit`` or ``first``, ``key`` names the request (a cell label), and
    ``cal`` indexes the calibration sample taken just before the request;
    one is always taken just after it too.
    """

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: simulated activations the round performed
    acts: int = 0
    #: :func:`calibrate` samples taken during the round, outside timing
    cal_s: list = field(default_factory=list)
    samples: list = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor taking this round's host times to the reference speed."""
        return REFERENCE_CAL_S * len(self.cal_s) / sum(self.cal_s)

    @property
    def ops(self) -> int:
        """Operations completed (misses, hits and streamed runs)."""
        return len(self.samples)

    def calibrate(self) -> None:
        """Take one calibration sample."""
        self.cal_s.append(calibrate())

    def sample(self, kind: str, key: str, ms: float) -> None:
        """Record one request's latency, calibrated on both sides."""
        self.samples.append((kind, key, ms, len(self.cal_s) - 1))

    def scaled(self, kind: str) -> list[tuple[str, float]]:
        """``(key, ms)`` of ``kind``, each scaled by its neighbouring
        calibration samples."""
        out = []
        for k, key, ms, cal in self.samples:
            if k != kind:
                continue
            pair = self.cal_s[cal:cal + 2]
            if cal < 0 or len(pair) != 2:
                raise ValueError(f"{kind} sample {key} lacks a calibration "
                                 f"sample on each side")
            out.append((key, ms * 2 * REFERENCE_CAL_S / sum(pair)))
        return out

    @contextlib.contextmanager
    def timing(self):
        """Add the enclosed block's wall and CPU time to this round."""
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - wall
            self.cpu_s += time.process_time() - cpu


def latency(rounds: list, kind: str, q: float) -> float:
    """The ``q``-th percentile latency of ``kind`` over ``rounds``.

    With one request key the percentile is over all samples.  With
    several (the cells of a sweep, each a different amount of work) it is
    over the keys' median latencies, so it reads "the q-th percentile
    cell" instead of falling on the edge between two cells' samples.
    """
    by_key: dict[str, list] = {}
    for r in rounds:
        for key, ms in r.scaled(kind):
            by_key.setdefault(key, []).append(ms)
    if len(by_key) == 1:
        return percentile(next(iter(by_key.values())), q)
    return percentile([median(v) for v in by_key.values()], q)


def sample_note(rounds: list) -> str:
    """How many latency samples each kind has, for the printed report."""
    parts = []
    for kind in ("miss", "hit", "first"):
        keys = {key for r in rounds for key, _ms in r.scaled(kind)}
        values = [ms for r in rounds for _key, ms in r.scaled(kind)]
        if len(keys) > 1:
            parts.append(f"{kind}: {len(values)} samples over {len(keys)} "
                         f"cells, percentiles over per-cell medians")
        elif kind == "miss":
            parts.append(f"{kind}: {tail_note(values, 90.0)}")
        else:
            parts.append(f"{kind}: n={len(values)}")
    return "latency samples: " + "; ".join(parts)


def end_to_end(setups: list, rounds: list, peak_rss_mb: float,
               mean_cpu: bool = False) -> dict:
    """The end-to-end metric values of one untraced run.

    Host times are scaled to the reference speed: round totals by their
    round's :attr:`Round.scale`, latencies by their own neighbouring
    calibration samples; ``setups`` are ``(seconds, scale)`` pairs.
    ``cpu_s`` is the median round's, or with ``mean_cpu`` (the served
    workload, whose server CPU is read at clock-tick resolution) the mean
    round's.
    """
    cpu = [r.cpu_s * r.scale for r in rounds]
    return {
        "setup_s": median([s * k for s, k in setups]),
        "wall_s": median([r.wall_s * r.scale for r in rounds]),
        "cpu_s": sum(cpu) / len(cpu) if mean_cpu else median(cpu),
        "sim_acts_per_cpu_s": (
            sum(r.acts for r in rounds) / sum(cpu) if mean_cpu
            else median([r.acts / c for r, c in zip(rounds, cpu)])),
        "peak_rss_mb": peak_rss_mb,
        "miss_done_p50_ms": latency(rounds, "miss", 50.0),
        "miss_done_p90_ms": latency(rounds, "miss", 90.0),
        "hit_done_p50_ms": latency(rounds, "hit", 50.0),
        "first_event_p50_ms": latency(rounds, "first", 50.0),
        "done_per_s": sum(r.ops for r in rounds)
        / sum(r.wall_s * r.scale for r in rounds),
    }
