"""The 18 evaluation workloads (MSC: COMM, PARSEC, SPEC, BIO suites).

The paper evaluates on 18 workloads from the Memory Scheduling
Championship: five commercial server traces, seven PARSEC benchmarks,
four SPEC benchmarks and two Biobench kernels.  The traces themselves
are not redistributable, so each workload is modelled as a
:class:`WorkloadSpec` whose parameters encode the documented behaviour:

* ``intensity`` — mean row activations per bank per 64 ms interval.
  The paper's own arithmetic (PRA's CMRPO of ≈11 % at p = 0.002 with the
  Table II PRNG energy) implies roughly 0.5-0.7 M activations per bank
  per interval for the memory-intensive traces; lighter traces sit well
  below.
* ``zipf_alpha`` / ``hot_*`` — skew.  Figure 3 shows blackscholes and
  facesim concentrating most activations on a small row group; streaming
  workloads (libquantum) approach uniform sweeps.
* ``phase_count`` — how many times per run the hot set relocates, the
  temporal drift DRCAT's reconfiguration targets.

Parameters are synthetic but fixed (seeded), so every experiment is
reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.synthetic import PhaseLayout, StreamModel


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one evaluation workload."""

    name: str
    suite: str
    #: mean row activations per bank per 64 ms interval (unscaled)
    intensity: float
    zipf_alpha: float
    hot_rows: int
    hot_fraction: float
    hot_clusters: int
    #: number of distinct access phases over a run
    phase_count: int
    read_fraction: float
    seed: int

    def stream_model(self, n_rows: int) -> StreamModel:
        """Instantiate the row-stream mixture for a bank of ``n_rows``."""
        background = max(1, min(n_rows, int(n_rows * 0.75)))
        return StreamModel(
            n_rows=n_rows,
            n_hot=min(self.hot_rows, n_rows),
            hot_fraction=self.hot_fraction,
            n_clusters=self.hot_clusters,
            zipf_alpha=self.zipf_alpha,
            background_rows=background,
        )

    def rng(self, salt: int = 0) -> np.random.Generator:
        """Deterministic generator for this workload (+ optional salt)."""
        return np.random.Generator(np.random.PCG64(self.seed * 1_000_003 + salt))


def _spec(
    name: str,
    suite: str,
    intensity: float,
    zipf_alpha: float,
    hot_rows: int,
    hot_fraction: float,
    hot_clusters: int = 2,
    phase_count: int = 1,
    read_fraction: float = 0.7,
    seed: int | None = None,
) -> WorkloadSpec:
    if seed is None:
        seed = abs(hash(name)) % (2**31)
        # hash() is salted per-process; derive a stable seed instead.
        seed = sum(ord(c) * 131**i for i, c in enumerate(name)) % (2**31)
    return WorkloadSpec(
        name=name,
        suite=suite,
        intensity=intensity,
        zipf_alpha=zipf_alpha,
        hot_rows=hot_rows,
        hot_fraction=hot_fraction,
        hot_clusters=hot_clusters,
        phase_count=phase_count,
        read_fraction=read_fraction,
        seed=seed,
    )


#: The paper's 18 evaluation workloads, in Figure 8 order.  Parameters
#: are calibrated (see docs/REPORT.md) so the scheme-level CMRPO/ETO
#: means land in the paper's reported ranges: intensities back-solved
#: from PRA's CMRPO arithmetic, concentration set so SCA_64 approaches
#: its access-budget refresh ceiling at T=16K, and phase drift kept to
#: the context-switch-heavy workloads.
WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        # COMM — commercial server traces: high intensity, strong skew,
        # several hot regions, noticeable context-switch drift.
        _spec("comm1", "COMM", 710_000, 1.2, 48, 0.45, 4, phase_count=2),
        _spec("comm2", "COMM", 645_000, 1.1, 40, 0.40, 4, phase_count=2),
        _spec("comm3", "COMM", 550_000, 1.2, 32, 0.40, 3, phase_count=2),
        _spec("comm4", "COMM", 485_000, 1.0, 32, 0.35, 3, phase_count=1),
        _spec("comm5", "COMM", 440_000, 1.1, 24, 0.35, 3, phase_count=1),
        # PARSEC — mixed: blackscholes/facesim sharply skewed (Fig. 3),
        # streamcluster closer to streaming.
        _spec("swapt", "PARSEC", 600_000, 1.3, 24, 0.50, 2, phase_count=1),
        _spec("fluid", "PARSEC", 645_000, 1.2, 32, 0.45, 3, phase_count=1),
        _spec("str", "PARSEC", 735_000, 0.7, 16, 0.25, 2, phase_count=1),
        _spec("black", "PARSEC", 690_000, 1.5, 12, 0.70, 1, phase_count=2),
        _spec("ferret", "PARSEC", 620_000, 1.2, 28, 0.45, 3, phase_count=1),
        _spec("face", "PARSEC", 710_000, 1.4, 16, 0.65, 2, phase_count=2),
        _spec("freq", "PARSEC", 575_000, 1.1, 24, 0.40, 2, phase_count=1),
        # SPEC — MTC/MTF are multithreaded commercial-like mixes with
        # context switching; libquantum streams; leslie3d is strided.
        _spec("MTC", "SPEC", 760_000, 1.1, 40, 0.40, 4, phase_count=2),
        _spec("MTF", "SPEC", 735_000, 1.1, 36, 0.40, 4, phase_count=2),
        _spec("libq", "SPEC", 805_000, 0.5, 8, 0.15, 1, phase_count=1),
        _spec("leslie", "SPEC", 665_000, 0.9, 24, 0.30, 2, phase_count=1),
        # BIO — genome alignment kernels: hot index structures.
        _spec("mum", "BIO", 645_000, 1.3, 20, 0.55, 2, phase_count=1),
        _spec("tigr", "BIO", 690_000, 1.3, 24, 0.55, 2, phase_count=1),
    )
}

#: Suite membership in presentation order (Figure 8's x-axis grouping).
SUITES: dict[str, tuple[str, ...]] = {
    "COMM": ("comm1", "comm2", "comm3", "comm4", "comm5"),
    "PARSEC": ("swapt", "fluid", "str", "black", "ferret", "face", "freq"),
    "SPEC": ("MTC", "MTF", "libq", "leslie"),
    "BIO": ("mum", "tigr"),
}

WORKLOAD_ORDER: tuple[str, ...] = tuple(
    name for suite in ("COMM", "PARSEC", "SPEC", "BIO") for name in SUITES[suite]
)


#: Long-form aliases accepted anywhere a workload name is taken (the
#: paper's Figure 8 axis abbreviates them).  This is the single home of
#: workload-name resolution; the runner and CLI delegate here.
WORKLOAD_ALIASES: dict[str, str] = {
    "blackscholes": "black",
    "facesim": "face",
    "streamcluster": "str",
    "fluidanimate": "fluid",
    "swaptions": "swapt",
    "freqmine": "freq",
    "libquantum": "libq",
    "leslie3d": "leslie",
    "mummer": "mum",
    "tigr": "tigr",
}


class UnknownWorkloadError(KeyError, ValueError):
    """Raised for a workload name that is neither canonical nor an alias.

    Subclasses both ``KeyError`` (the historical :func:`get_workload`
    contract) and ``ValueError`` (what name-validation callers catch).
    """

    def __init__(self, name: str) -> None:
        message = (
            f"unknown workload {name!r}; valid names: "
            f"{', '.join(WORKLOAD_ORDER)}; aliases: "
            + ", ".join(f"{a}->{c}" for a, c in sorted(WORKLOAD_ALIASES.items()))
        )
        super().__init__(message)
        self.workload = name

    def __str__(self) -> str:  # KeyError would render the repr
        return self.args[0]


def resolve_workload(workload: "str | WorkloadSpec") -> WorkloadSpec:
    """Resolve a canonical name, a long-form alias, or a spec object."""
    if isinstance(workload, WorkloadSpec):
        return workload
    name = WORKLOAD_ALIASES.get(workload, workload)
    try:
        return WORKLOADS[name]
    except KeyError:
        raise UnknownWorkloadError(workload) from None


def canonical_name(workload: "str | WorkloadSpec") -> str:
    """The Figure 8 label a name/alias/spec resolves to (validating)."""
    return resolve_workload(workload).name


def get_workload(name: str) -> WorkloadSpec:
    """Look up a workload by its Figure 8 label (aliases not accepted)."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise UnknownWorkloadError(name) from None


def row_frequency_histogram(
    spec: WorkloadSpec,
    n_rows: int,
    n_accesses: int | None = None,
    phase: int = 0,
) -> np.ndarray:
    """Row-activation frequency of one bank over one interval (Fig. 3).

    Returns an ``n_rows``-long array of per-row activation counts.
    """
    model = spec.stream_model(n_rows)
    rng = spec.rng(salt=phase)
    layout = model.phase_layout(rng)
    count = n_accesses if n_accesses is not None else int(spec.intensity)
    rows = model.sample(rng, count, layout)
    return np.bincount(rows, minlength=n_rows)


def phase_layouts(
    spec: WorkloadSpec, n_rows: int
) -> list[PhaseLayout]:
    """Materialise all phase layouts of a workload for one bank."""
    model = spec.stream_model(n_rows)
    return [
        model.phase_layout(spec.rng(salt=phase))
        for phase in range(spec.phase_count)
    ]
