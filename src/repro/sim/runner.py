"""Experiment runner: the public entry points benches and examples use.

The canonical input everywhere is the declarative layer in
:mod:`repro.experiments`: :func:`simulate_workload` accepts a full
:class:`~repro.experiments.ExperimentSpec`, and :func:`sweep` accepts a
:class:`~repro.experiments.Plan` (with an optional per-cell on-disk
result cache keyed by spec content hash).  The convenience keyword forms
remain — ``simulate_workload("black", scheme="drcat")`` builds the
equivalent spec internally — but per-scheme parameters are typed:
pass ``scheme=SchemeSpec.create(kind, ...)``.  (The pre-spec loose
keyword soup — ``counters=`` / ``max_levels=`` / ``pra_probability=`` /
``threshold_strategy=`` / ``scheme_overrides=`` — was removed after its
one-release deprecation window and now raises ``TypeError``.)

``sweep(..., workers=N)`` dispatches independent cells over a process
pool; every cell seeds its own generators deterministically, so results
are identical at any worker count and any cache hit/miss split.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.dram.config import SystemConfig
from repro.experiments.plan import Plan
from repro.experiments.run import run_plan, run_spec
from repro.experiments.spec import (
    DEFAULT_BANKS,
    DEFAULT_INTERVALS,
    DEFAULT_SCALE,
    DEFAULT_SYSTEM,
    ExperimentSpec,
    coerce_scheme,
)
from repro.sim.metrics import SimulationResult, mean_over
from repro.sim.simulator import TraceDrivenSimulator
from repro.workloads.attacks import AttackKernel, get_kernel
from repro.workloads.suites import WorkloadSpec, resolve_workload

__all__ = [
    "DEFAULT_SCALE",
    "DEFAULT_BANKS",
    "DEFAULT_INTERVALS",
    "simulate_workload",
    "simulate_attack",
    "sweep",
    "suite_means",
]


def _workload_fields(workload: str | WorkloadSpec) -> dict:
    """ExperimentSpec fields describing one workload argument."""
    if isinstance(workload, WorkloadSpec):
        try:
            registered = resolve_workload(workload.name)
        except KeyError:
            registered = None
        if registered == workload:
            return {"workload": workload.name}
        return {"workload_model": workload}
    return {"workload": str(workload)}


def build_spec(
    workload: str | WorkloadSpec,
    scheme,
    *,
    config: SystemConfig | None = None,
    refresh_threshold: int = 32768,
    scale: float = DEFAULT_SCALE,
    n_banks: int = DEFAULT_BANKS,
    n_intervals: int = DEFAULT_INTERVALS,
    engine: str = "batched",
) -> ExperimentSpec:
    """The ExperimentSpec a convenience keyword call describes."""
    return ExperimentSpec(
        scheme=coerce_scheme(scheme),
        system=config if config is not None else DEFAULT_SYSTEM,
        refresh_threshold=refresh_threshold,
        scale=scale,
        n_banks=n_banks,
        n_intervals=n_intervals,
        engine=engine,
        **_workload_fields(workload),
    )


def simulate_workload(
    workload: str | WorkloadSpec | ExperimentSpec,
    scheme="drcat",
    *,
    config: SystemConfig | None = None,
    refresh_threshold: int = 32768,
    scale: float = DEFAULT_SCALE,
    n_banks: int = DEFAULT_BANKS,
    n_intervals: int = DEFAULT_INTERVALS,
    engine: str = "batched",
) -> SimulationResult:
    """Run one experiment and return CMRPO/ETO metrics.

    The first argument may be a full
    :class:`~repro.experiments.ExperimentSpec` (every other argument is
    then ignored), or a workload — a Figure 8 label, a long-form alias
    (``"blackscholes"``), or a :class:`WorkloadSpec` — paired with a
    scheme given as a :class:`~repro.experiments.SchemeSpec` or a bare
    kind string (per-scheme parameters go through
    :meth:`SchemeSpec.create <repro.experiments.SchemeSpec.create>`).
    ``engine`` selects the per-event ``"scalar"`` loop or the
    (event-exact, bit-identical) ``"batched"`` fast path.
    """
    if isinstance(workload, ExperimentSpec):
        return run_spec(workload)
    spec = build_spec(
        workload,
        scheme,
        config=config,
        refresh_threshold=refresh_threshold,
        scale=scale,
        n_banks=n_banks,
        n_intervals=n_intervals,
        engine=engine,
    )
    return run_spec(spec)


def simulate_attack(
    kernel: str | AttackKernel,
    mode: str,
    scheme,
    *,
    benign: str | WorkloadSpec = "libq",
    config: SystemConfig | None = None,
    refresh_threshold: int = 32768,
    scale: float = DEFAULT_SCALE,
    n_banks: int = DEFAULT_BANKS,
    n_intervals: int = DEFAULT_INTERVALS,
    engine: str = "batched",
) -> SimulationResult:
    """Run one Figure 13 attack experiment.

    As with :func:`simulate_workload`, ``kernel`` may be a full attack
    :class:`~repro.experiments.ExperimentSpec`; otherwise a kernel
    name/object, mix mode and scheme describe the cell.
    """
    if isinstance(kernel, ExperimentSpec):
        return run_spec(kernel)
    kernel_obj = get_kernel(kernel) if isinstance(kernel, str) else kernel
    spec = ExperimentSpec(
        scheme=coerce_scheme(scheme),
        kind="attack",
        attack_kernel=kernel_obj.name,
        attack_mode=mode,
        system=config if config is not None else DEFAULT_SYSTEM,
        refresh_threshold=refresh_threshold,
        scale=scale,
        n_banks=n_banks,
        n_intervals=n_intervals,
        engine=engine,
        **_workload_fields(benign),
    )
    try:
        registered = get_kernel(kernel_obj.name)
    except KeyError:
        registered = None
    if registered != kernel_obj:
        # An off-registry kernel object cannot be named in a spec; run
        # it directly (uncacheable, but fully supported).
        sim = TraceDrivenSimulator(spec)
        return sim.run_attack(kernel_obj, mode, spec.resolve_workload_model())
    return run_spec(spec)


#: Default scheme axis of a legacy sweep; identity-compared so an
#: explicitly passed ``schemes`` alongside a Plan is detectable.
_DEFAULT_SWEEP_SCHEMES = ("pra", "sca", "prcat", "drcat")


def sweep(
    workloads: Plan | Iterable[str | WorkloadSpec] | None = None,
    schemes: Iterable = _DEFAULT_SWEEP_SCHEMES,
    workers: int = 1,
    *,
    cache=None,
    **kwargs,
) -> dict[tuple[str, str], SimulationResult]:
    """Run a :class:`~repro.experiments.Plan`, or a cartesian grid.

    Returns ``{(workload_name, scheme_label): SimulationResult}``.  The
    first argument may be a Plan (``schemes`` and the grid keyword
    arguments are then invalid); otherwise a (workload × scheme) grid is
    built, with scheme entries given as kind strings or typed
    :class:`~repro.experiments.SchemeSpec` objects and the remaining
    keywords (``refresh_threshold=`` / ``scale=`` / ... ) applied to
    every cell via :func:`build_spec`.

    ``workers > 1`` runs cells on a process pool; ``cache`` (a
    directory path or :class:`~repro.experiments.ResultCache`) enables
    the per-cell on-disk result cache keyed by spec content hash.
    """
    if isinstance(workloads, Plan):
        if kwargs:
            raise TypeError(
                "sweep(plan) takes no grid keyword arguments "
                f"({', '.join(kwargs)})"
            )
        if schemes is not _DEFAULT_SWEEP_SCHEMES:
            raise TypeError(
                "sweep(plan) takes no schemes argument — the plan's "
                "cells already carry their SchemeSpecs"
            )
        plan = workloads
        keys = plan.keys()
        duplicates = {k for k in keys if keys.count(k) > 1}
        if duplicates:
            # dict(zip(...)) would silently keep only the last cell per
            # key; plans with axes beyond workload/scheme (thresholds,
            # engines, ...) need the full per-spec results.
            raise ValueError(
                "sweep(plan) keys results by (workload, scheme-label), "
                f"but these keys repeat: {sorted(duplicates)}; give the "
                "colliding cells distinct SchemeSpec labels, or use "
                "repro.experiments.run_plan for per-spec results"
            )
    else:
        plan = _grid_plan(workloads, schemes, kwargs)
    results = run_plan(plan, workers=workers, cache=cache)
    return dict(zip(plan.keys(), results))


def _grid_plan(
    workloads: Iterable[str | WorkloadSpec] | None,
    schemes: Iterable,
    kwargs: dict,
) -> Plan:
    """The Plan a ``sweep(workloads=, schemes=, **run_knobs)`` means."""
    from repro.workloads.suites import WORKLOAD_ORDER

    names = list(workloads) if workloads is not None else list(WORKLOAD_ORDER)
    specs = [
        build_spec(workload, scheme, **kwargs)
        for workload in names
        for scheme in schemes
    ]
    return Plan.of(specs)


def suite_means(
    results: dict[tuple[str, str], SimulationResult], attr: str = "cmrpo"
) -> dict[str, float]:
    """Per-scheme mean of ``attr`` over all workloads in a sweep."""
    by_scheme: dict[str, list[SimulationResult]] = {}
    for (_workload, scheme), result in results.items():
        by_scheme.setdefault(scheme, []).append(result)
    return {
        scheme: mean_over(runs, attr) for scheme, runs in by_scheme.items()
    }
