"""Tests of the benchmark's own logic: metric schema, gate and span arithmetic."""

from __future__ import annotations

import json
import os
import re

import pytest

from perfbench import gate as gate_mod
from perfbench import run as run_mod
from perfbench.common import REFERENCE_CAL_S, Round, derive_seed, end_to_end
from perfbench.sim_workloads import layer_metrics
from perfbench.spans import PARENT, Tracer, layer_table, self_times
from perfbench.stats import percentile

SCHEMA = run_mod.load_schema()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _round(cpu_s: float, ms: float) -> Round:
    rnd = Round(wall_s=cpu_s, cpu_s=cpu_s, acts=1000,
                cal_s=[REFERENCE_CAL_S, REFERENCE_CAL_S])
    for kind in ("miss", "hit", "first"):
        rnd.samples.append((kind, "cell", ms, 0))
    return rnd


def test_schema_names_units_and_bounds():
    """Metric names, units and bounds fit BENCHMARK.json's format rules."""
    seen = set()
    for group in ("end_to_end", "per_layer"):
        for metric in SCHEMA[group]:
            assert NAME.match(metric["name"]), metric
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
            assert metric["name"] not in seen
            seen.add(metric["name"])
    bounds = {m["name"]: m for m in SCHEMA["end_to_end"]}
    assert bounds["setup_s"]["unit"] == "s"
    assert bounds["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in bounds.values())
    assert bounds["setup_s"]["bound"] == max(m["bound"]
                                             for m in bounds.values())
    assert {w["name"] for w in SCHEMA["workloads"]} == set(run_mod.WORKLOADS)


def test_end_to_end_produces_exactly_the_schema_metrics():
    """The untraced metric set matches BENCHMARK.json, with its units."""
    metrics = end_to_end([(1.0, 1.0)] * 3,
                         [_round(2.0, 10.0), _round(4.0, 30.0)], 100.0)
    line = run_mod.result_line(gate_mod.Gate("tree-hot", 0, None),
                               metrics, SCHEMA["end_to_end"])
    assert set(line["metrics"]) == {m["name"] for m in SCHEMA["end_to_end"]}
    assert line["metrics"]["cpu_s"] == {"value": 3.0, "unit": "s"}
    assert line["metrics"]["miss_done_p50_ms"]["value"] == 20.0
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_result_line_rejects_a_metric_set_off_the_schema():
    """A missing or unexpected metric is an error, not a silent zero."""
    metrics = end_to_end([(1.0, 1.0)], [_round(2.0, 10.0)], 100.0)
    metrics["bogus"] = 1.0
    with pytest.raises(KeyError):
        run_mod.result_line(gate_mod.Gate("tree-hot", 0, None), metrics,
                            SCHEMA["end_to_end"])


def test_layer_metrics_cover_the_schema_on_every_workload():
    """Traced metric sets plus the unreached zeros equal the per-layer list."""
    tracer = Tracer()
    index = tracer.begin("experiments.run_spec")
    tracer.end(index)
    rounds = [_round(1.0, 1.0)]
    metrics, _table = layer_metrics(tracer, rounds, rounds, [])
    run_mod.fill_unreached(metrics, SCHEMA["per_layer"], "tree-hot")
    assert set(metrics) == {m["name"] for m in SCHEMA["per_layer"]}
    served = {"server.submit_ms": 1.0, "other.self_s": 0.1}
    run_mod.fill_unreached(served, SCHEMA["per_layer"], "served-mix")
    assert served["core.replays"] == 0.0 and "server.poll_ms" not in served


def test_scaling_uses_neighbouring_calibration_samples():
    """A request between two slow calibration samples is scaled down."""
    rnd = Round(cal_s=[REFERENCE_CAL_S, 2 * REFERENCE_CAL_S,
                       2 * REFERENCE_CAL_S])
    rnd.samples.append(("miss", "a", 30.0, 1))
    [(key, ms)] = rnd.scaled("miss")
    assert key == "a" and ms == pytest.approx(15.0)
    assert rnd.scale == pytest.approx(0.6)


def test_multi_key_latency_is_a_percentile_of_per_key_medians():
    """Cells of different sizes are summarised per cell, then across."""
    rnd = Round(cal_s=[REFERENCE_CAL_S, REFERENCE_CAL_S])
    for key, values in {"a": (1, 2, 3), "b": (10, 20, 30)}.items():
        for v in values:
            rnd.samples.append(("miss", key, float(v), 0))
    metrics = end_to_end([(1.0, 1.0)], [Round(wall_s=1, cpu_s=1, acts=1,
                                              cal_s=rnd.cal_s,
                                              samples=rnd.samples + [
                                                  ("hit", "p", 1.0, 0),
                                                  ("first", "p", 1.0, 0)])],
                         1.0)
    assert metrics["miss_done_p50_ms"] == pytest.approx((2 + 20) / 2)


def test_percentile_interpolates():
    """Linear interpolation between order statistics."""
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 90) == 5
    assert percentile(range(11), 90) == 9


def test_gate_detects_a_perturbed_digest():
    """A recorded digest that does not match fails the cell."""
    stats = {"accesses": 10, "refresh_commands": 2, "rows_refreshed": 4,
             "stall_ns": 1.5, "cmrpo": 0.01, "eto": 0.002}
    good = gate_mod.digest(stats)
    recorded = {"seed": 7, "workloads": {"tree-hot": {"black/X": good}}}
    assert gate_mod.Gate("tree-hot", 7, recorded).cell("black/X", stats) \
        is None
    bad = dict(recorded, workloads={"tree-hot": {"black/X": "0" * 16}})
    gate = gate_mod.Gate("tree-hot", 7, bad)
    error = gate.cell("black/X", stats)
    assert error and "recorded" in error
    gate.op(error is None, error)
    line = run_mod.result_line(gate, end_to_end(
        [(1.0, 1.0)], [_round(1.0, 1.0)], 1.0), SCHEMA["end_to_end"])
    assert line["correct"] is False and line["failed"] == 1


def test_gate_checks_repeats_and_missing_cells():
    """Any seed: a repeat must reproduce its first digest; recorded seed:
    every recorded cell must appear."""
    stats = {"accesses": 1, "refresh_commands": 0, "rows_refreshed": 0,
             "stall_ns": 0.0, "cmrpo": 0.0, "eto": 0.0}
    gate = gate_mod.Gate("stream-cold", 3, {"seed": 1, "workloads": {}})
    assert not gate.checks_digests
    assert gate.cell("c", stats) is None
    assert gate.cell("c", dict(stats, accesses=2)) is not None
    recorded = {"seed": 3, "workloads": {"stream-cold": {"c": "x", "d": "y"}}}
    gate = gate_mod.Gate("stream-cold", 3, recorded)
    gate.cell("c", stats)
    assert gate.missing_digests() == ["d"]


def test_a_run_whose_probes_all_fail_still_reports(monkeypatch, capsys):
    """Every streamed probe fails, so there is no first-event sample and
    computing the metrics raises.  The run still prints its FAILED lines
    and a result line with correct false, and exits 1."""
    from perfbench import sim_workloads

    def every_probe_fails(name, seed, seconds, trace, gate, *_rest):
        rnd = _round(1.0, 1.0)
        rnd.samples = [s for s in rnd.samples if s[0] != "first"]
        for _ in range(3):
            gate.op(False, f"{name}: streamed run emitted no epoch")
        return end_to_end([(1.0, 1.0)], [rnd], 1.0), []

    monkeypatch.setattr(sim_workloads, "run", every_probe_fails)
    monkeypatch.setattr(run_mod, "isolated_env", lambda work: dict(os.environ))
    code = run_mod.main(["--workload", "tree-hot", "--seed", "5",
                         "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out.splitlines()
    line = json.loads(out[-1])
    assert code == 1
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (4, 4)
    assert set(line["metrics"]) == {m["name"] for m in SCHEMA["end_to_end"]}
    failed = [text for text in out if text.startswith("FAILED: ")]
    assert len(failed) == 4
    assert "run raised ValueError" in failed[-1]


def test_recorded_digests_cover_every_workload():
    """digests.json holds digests for all three workloads on the seed."""
    digests = gate_mod.load_digests()
    assert digests["seed"] == run_mod.DEFAULT_SEED
    assert set(digests["workloads"]) == set(run_mod.WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    """Overlapping children are counted once; grandchildren do not count."""
    spans = [
        ["a.x", 0.0, 10.0, -1, ""],
        ["b.y", 1.0, 3.0, 0, ""],
        ["b.y", 2.0, 4.0, 0, ""],
        ["c.z", 2.5, 3.5, 2, ""],
        ["b.y", 9.0, 12.0, 0, ""],   # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 3 - 1)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)


def test_layer_table_shares_add_up_with_an_explicit_other():
    """Properly nested spans: layer self times plus other fill the wall."""
    spans = [
        ["sim.run", 0.0, 6.0, -1, "c1"],
        ["core.access_batch", 1.0, 4.0, 0, "c1"],
        ["dram.serve_access", 2.0, 3.0, 1, "c1"],
        ["sim.run", 7.0, 9.0, -1, "c2"],
    ]
    table = layer_table(spans, wall_s=10.0)
    assert table["sim"] == {"self_s": 5.0, "calls": 2, "share": 0.5}
    assert table["core"]["self_s"] == pytest.approx(2.0)
    assert table["dram"]["self_s"] == pytest.approx(1.0)
    assert table["other"]["self_s"] == pytest.approx(2.0)
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)


def test_tracer_wraps_nests_and_restores():
    """Wrapped calls record parented spans; unwrap restores the original."""

    class Layer:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    original = Layer.__dict__["inner"]
    tracer = Tracer()
    hits = []
    tracer.wrap(Layer, "outer", "top.outer")
    tracer.wrap(Layer, "inner", "low.inner", on_result=hits.append)
    assert Layer().outer(1) == 4
    assert [s[0] for s in tracer.spans] == ["top.outer", "low.inner"]
    assert tracer.spans[1][PARENT] == 0 and hits == [2]
    tracer.unwrap_all()
    assert Layer.__dict__["inner"] is original


def test_derive_seed_is_deterministic_and_positive():
    """Same inputs, same seed; different parts, different seeds."""
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert 0 <= derive_seed(5, "x", 3) < 2 ** 31
