"""Simulation harness: re-entrant core, trace-driven simulator, metrics,
sweep runner."""

from repro.sim.engine import (
    ENGINES,
    TIME_QUANTUM_NS,
    advance_batched_streams,
    quantize_times_ns,
)
from repro.sim.metrics import (
    RunTotals,
    SimulationResult,
    format_table,
    mean_over,
)
from repro.sim.runner import (
    simulate_attack,
    simulate_workload,
    suite_means,
    sweep,
)
from repro.sim.session import SessionCore, merge_streams
from repro.sim.simulator import TraceDrivenSimulator, scaled_threshold

__all__ = [
    "ENGINES",
    "TIME_QUANTUM_NS",
    "quantize_times_ns",
    "advance_batched_streams",
    "RunTotals",
    "SimulationResult",
    "format_table",
    "mean_over",
    "simulate_attack",
    "simulate_workload",
    "suite_means",
    "sweep",
    "SessionCore",
    "merge_streams",
    "TraceDrivenSimulator",
    "scaled_threshold",
]
