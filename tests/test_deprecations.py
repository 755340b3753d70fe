"""Removal gates for the pre-spec keyword surfaces.

ISSUE-3 kept these shims alive for one release behind
``DeprecationWarning``; ISSUE-4 removed them.  This module pins the
*removal guarantees*: every former shim now raises (``TypeError`` /
``AttributeError``) instead of silently doing something, and the
canonical spec paths stay free of deprecation warnings.  The retired
``jit`` engine is pinned the same way: every surface that names an
engine rejects it with an error listing the engines that remain.  The
USIMM-style trace-replay stack (ROB front end, address mapper, FR-FCFS
controller) and the unused ``RefreshAccountant`` are pinned as deleted:
their modules no longer import and their names are gone from the
package namespaces.  The tier-1 suite collects this file on every CI
leg, so a future change cannot quietly resurrect a shim.
"""

import importlib
import json
import re
import warnings

import pytest

from repro.core.base import RefreshCommand
from repro.dram.config import DUAL_CORE_2CH
from repro.experiments import ExperimentSpec, Plan, SchemeSpec, run_spec
from repro.sim.runner import simulate_attack, simulate_workload, sweep
from repro.sim.simulator import TraceDrivenSimulator

FAST = dict(scale=128.0, n_banks=1, n_intervals=1)


def fast_spec(**overrides):
    fields = dict(scheme=SchemeSpec("drcat"), workload="libq", **FAST)
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestSimulatorCtorRemoved:
    def test_config_positional_raises(self):
        with pytest.raises(TypeError, match="ExperimentSpec"):
            TraceDrivenSimulator(DUAL_CORE_2CH)

    def test_legacy_ctor_raises(self):
        with pytest.raises(TypeError):
            TraceDrivenSimulator(DUAL_CORE_2CH, "sca")

    def test_legacy_kwargs_raise(self):
        with pytest.raises(TypeError):
            TraceDrivenSimulator(
                DUAL_CORE_2CH, "sca", scale=128.0,
                n_banks_simulated=1, n_intervals=1,
            )

    def test_spec_ctor_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            TraceDrivenSimulator(fast_spec())


class TestSchemeKwargSoupRemoved:
    def test_counters_kwarg_raises(self):
        with pytest.raises(TypeError):
            simulate_workload("libq", scheme="sca", counters=128, **FAST)

    def test_pra_probability_kwarg_raises(self):
        with pytest.raises(TypeError):
            simulate_workload("libq", scheme="pra",
                              pra_probability=0.004, **FAST)

    def test_threshold_strategy_kwarg_raises(self):
        with pytest.raises(TypeError):
            simulate_workload("libq", scheme="drcat",
                              threshold_strategy="geometric", **FAST)

    def test_attack_kwarg_raises(self):
        with pytest.raises(TypeError):
            simulate_attack("kernel01", "light", "sca", counters=128, **FAST)

    def test_sweep_scheme_overrides_raises(self):
        with pytest.raises(TypeError):
            sweep(workloads=["libq"], schemes=("sca",),
                  scheme_overrides={"sca": {"counters": 128}}, **FAST)

    def test_scheme_spec_call_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate_workload(
                "libq",
                scheme=SchemeSpec.create("sca", n_counters=128),
                **FAST,
            )

    def test_plain_kind_string_is_silent(self):
        # The convenience form without per-scheme parameters stays.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate_workload("libq", scheme="drcat", **FAST)

    def test_spec_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_spec(fast_spec())
            sweep(Plan.grid(fast_spec(), workload=["libq"]))

    def test_typed_scheme_matches_spec_numerics(self):
        """The convenience keyword path and the spec path still agree."""
        convenient = simulate_workload(
            "libq", scheme=SchemeSpec.create("sca", n_counters=128), **FAST
        )
        via_spec = run_spec(fast_spec(
            scheme=SchemeSpec.create("sca", n_counters=128)
        ))
        assert convenient.to_dict() == via_spec.to_dict()


class TestRefreshCommandSpan:
    def test_span(self):
        assert RefreshCommand(3, 12).span == 10

    def test_n_rows_alias_removed(self):
        with pytest.raises(AttributeError):
            RefreshCommand(3, 12).n_rows

    def test_span_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            RefreshCommand(0, 0).span


class TestSessionSurfaceIsCanonical:
    """The new public surface stays warning-free from day one."""

    def test_session_paths_are_silent(self):
        import json

        from repro.api import Session, open_session

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = open_session(fast_spec())
            session.step(100)
            doc = json.loads(json.dumps(session.snapshot()))
            Session.restore(doc).result()


#: The valid engines, in order, as every rejection message lists them
#: (argparse may quote each name).
VALID_ENGINES = re.compile(r"'?scalar'?, '?batched'?")


def make_server(cache_dir):
    from repro.server import ReproServer, ServerConfig

    return ReproServer(ServerConfig(
        port=0, workers=1, driver_threads=1, cache_dir=str(cache_dir),
    ))


class TestJitEngineRemoved:
    """``engine="jit"`` is rejected wherever an engine can be named."""

    def test_spec_rejects_jit(self):
        with pytest.raises(ValueError, match=VALID_ENGINES):
            fast_spec(engine="jit")

    def test_cli_run_rejects_jit(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--workload", "libq", "--engine", "jit"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "'jit'" in err and VALID_ENGINES.search(err)

    def test_bench_engine_env_rejects_jit(self):
        from repro.report.config import BenchConfig, EnvConfigError

        with pytest.raises(EnvConfigError, match=VALID_ENGINES):
            BenchConfig.from_env({"REPRO_BENCH_ENGINE": "jit"})

    def test_post_run_rejects_jit_with_a_4xx(self, tmp_path):
        from repro.server.http import Request

        doc = dict(fast_spec().to_dict(), engine="jit")
        server = make_server(tmp_path / "cache")
        try:
            response = server.handle(Request(
                method="POST", path="/v1/runs", query={}, headers={},
                body=json.dumps({"spec": doc}).encode(),
            ))
        finally:
            server.close()
        assert 400 <= response.status < 500
        error = json.loads(response.body)["error"]
        assert VALID_ENGINES.search(error["message"])

    def test_journaled_jit_job_recovers_as_failed(self, tmp_path):
        from repro.server.journal import Journal

        spec = fast_spec()
        job_id = f"j00001-{spec.content_hash()[:8]}"
        cache_root = tmp_path / "cache"
        journal = Journal(cache_root / "journal")
        journal.record_submit(
            job_id, "run", spec.content_hash(), 1,
            {"spec": dict(spec.to_dict(), engine="jit")},
        )
        journal.record_state(job_id, "running")
        journal.close()
        server = make_server(cache_root)
        try:
            job = server.jobs.get(job_id)
            assert job.status == "failed" and job.recovered
            assert job.error.startswith("recovery:")
            assert VALID_ENGINES.search(job.error)
        finally:
            server.close()


class TestTraceReplayStackRemoved:
    """The ROB -> address map -> FR-FCFS replay path and the refresh
    accountant are deleted; every run goes through the ``(time, row)``
    stream path."""

    @pytest.mark.parametrize("module", [
        "repro.cpu",
        "repro.dram.address",
        "repro.dram.controller",
        "repro.dram.refresh",
        "repro.sim.replay",
    ])
    def test_module_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize("package, name", [
        ("repro.sim", "replay_trace"),
        ("repro.sim", "synthesize_trace"),
        ("repro.dram", "MemoryController"),
        ("repro.dram", "AddressMapper"),
        ("repro.dram", "RefreshAccountant"),
    ])
    def test_name_is_gone(self, package, name):
        module = importlib.import_module(package)
        assert not hasattr(module, name)
        assert name not in module.__all__
