"""The served workload: a live ``repro serve`` and one closed-loop client.

The server runs as its own process (``--workers 1``) on a private cache
directory and trace store.  Each round the client submits a fresh-seed,
Figure-8-style scheme-axis plan at ``ci`` fidelity and polls it to done
(a result-cache miss that writes the cache and the journal), resubmits the
same plan (a hit that is born done), then submits one fresh-seed streamed
run and times its first ``epoch`` event on the SSE stream, reading the
stream to its end.  The next round starts only after all of that, so the
loop is closed with one client; the server closes every connection after
its response, so each request is a new connection and at most one is open.

Server CPU time and peak memory come from ``/proc/<pid>`` (Linux), at
clock-tick resolution, so ``cpu_s`` is the measured phase's server CPU
divided by its rounds.  The traced run times the client's calls into each
endpoint; the layers below ``server`` run inside the server process and
are not observed here.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

from perfbench.common import Round, call, derive_seed, end_to_end, \
    rounds_until, sample_note, timed_setups
from perfbench.gate import cell_stats
from perfbench.spans import Tracer, layer_table, name_totals

#: The ``ci`` verify fidelity point.
FIDELITY = {"scale": 24.0, "n_intervals": 2, "n_banks": 1,
            "refresh_threshold": 32768}
PLAN_WORKLOADS = ("black", "libq")
POLL_S = 0.005
#: sampled rounds re-run directly through ``run_plan`` for byte identity
VERIFY_ROUNDS = 8
#: The server's job table grows until its GC bound, so its peak RSS grows
#: with the number of rounds a run fits; it is read after this many.
RSS_ROUNDS = 30
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


def fig8_schemes():
    """The Figure 8 scheme axis at T=32K."""
    from repro import SchemeSpec

    return [
        SchemeSpec.create("pra", "PRA", probability=0.002),
        SchemeSpec.create("sca", "SCA_64", n_counters=64),
        SchemeSpec.create("sca", "SCA_128", n_counters=128),
        SchemeSpec.create("prcat", "PRCAT_64", n_counters=64, max_levels=11),
        SchemeSpec.create("drcat", "DRCAT_64", n_counters=64, max_levels=11),
    ]


def round_plan(seed: int, index: int):
    """Round ``index``'s plan: every scheme on every plan workload."""
    from repro import ExperimentSpec, Plan

    base = ExperimentSpec(scheme=fig8_schemes()[0],
                          seed=derive_seed(seed, "served-mix", "plan", index),
                          **FIDELITY)
    return Plan.grid(base, scheme=fig8_schemes(),
                     workload=list(PLAN_WORKLOADS))


def round_run(seed: int, index: int):
    """Round ``index``'s streamed run: DRCAT_64 on ``black``."""
    from repro import ExperimentSpec

    return ExperimentSpec(scheme=fig8_schemes()[-1], workload="black",
                          seed=derive_seed(seed, "served-mix", "run", index),
                          **FIDELITY)


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of process ``pid`` (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of process ``pid``, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


class Server:
    """One ``repro serve`` process on a private cache dir and trace store."""

    def __init__(self, work: Path, env: dict, index: int) -> None:
        self.cache_dir = work / f"server-cache-{index}"
        self.env = dict(env, REPRO_TRACE_STORE_DIR=str(
            work / f"server-traces-{index}"))
        self.log_path = work / f"server-{index}.log"
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        """Spawn the server and wait for its announce line."""
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host",
                 "127.0.0.1", "--port", "0", "--workers", "1",
                 "--cache-dir", str(self.cache_dir)],
                stdout=subprocess.PIPE, stderr=log, env=self.env,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    break
                match = re.search(r"serving on http://[^:]+:(\d+)", line)
                if match:
                    self.port = int(match.group(1))
                    return
        self.stop()
        raise RuntimeError(f"repro serve did not announce; see "
                           f"{self.log_path.read_text(errors='replace')[-2000:]}")

    def stop(self) -> None:
        """Drain the server with SIGTERM and wait for it to exit."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def request(self, method: str, path: str, doc: dict | None = None):
        """One HTTP request; returns ``(status, decoded JSON body)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            body = None if doc is None else json.dumps(doc).encode("utf-8")
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def read_events(self, job: str, on_first) -> list[str]:
        """Read job ``job``'s SSE stream to its end.

        ``on_first()`` is called at the first data line of an ``epoch``
        event.  Returns the event names seen, in order.
        """
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        names = []
        try:
            conn.request("GET", f"/v1/jobs/{job}/events")
            resp = conn.getresponse()
            event = ""
            for raw in resp:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    event = line[7:]
                    names.append(event)
                elif line.startswith("data: ") and event == "epoch" \
                        and names.count("epoch") == 1:
                    on_first()
        finally:
            conn.close()
        return names


class ServedWorkload:
    """One run of ``served-mix``."""

    def __init__(self, seed: int, gate, work: Path, env: dict) -> None:
        self.seed = seed
        self.gate = gate
        self.work = work
        self.env = env
        self.server: Server | None = None
        self.tracer: Tracer | None = None
        #: (round index, plan results, run spec doc, run result) to verify
        self.served: list[tuple] = []
        #: server peak RSS after :data:`RSS_ROUNDS` rounds
        self.rss_mb = 0.0

    def setup(self) -> list[tuple[float, float]]:
        """Start the server several times (:func:`timed_setups`); keep the
        last.

        One set-up is spawn to announce plus a warm-up plan polled to
        done, so the server's lazy imports are paid before timing.
        """
        from repro import ExperimentSpec, Plan, SchemeSpec

        def once(i: int) -> float:
            if self.server is not None:
                self.server.stop()
            start = time.perf_counter()
            self.server = Server(self.work, self.env, i)
            self.server.start()
            warm = Plan([ExperimentSpec(
                scheme=SchemeSpec.create("pra", probability=0.002),
                seed=derive_seed(self.seed, "served-mix", "warm", i),
                scale=96.0, n_intervals=1, n_banks=1)])
            _status, doc = self.server.request(
                "POST", "/v1/plans", {"plan": warm.to_dict()})
            self._wait(doc["job"])
            return time.perf_counter() - start

        return timed_setups(once)

    def _wait(self, job: str) -> dict:
        while True:
            status, doc = call(self.tracer, "server.poll",
                               self.server.request, "GET", f"/v1/jobs/{job}")
            if status != 200 or doc.get("status") in ("done", "failed"):
                return doc
            time.sleep(POLL_S)

    def run_round(self, index: int) -> Round:
        """Miss, hit and streamed run; bookkeeping outside the timing."""
        rnd = Round()
        plan = round_plan(self.seed, index)
        spec = round_run(self.seed, index)
        if self.tracer is not None:
            self.tracer.ctx = f"round{index}"
        fired: list[float] = []
        pid = self.server.proc.pid
        rnd.calibrate()
        cpu0 = proc_cpu_s(pid)
        with rnd.timing():
            t0 = time.perf_counter()
            status, doc = call(self.tracer, "server.submit",
                               self.server.request, "POST", "/v1/plans",
                               {"plan": plan.to_dict()})
            if status == 202:
                doc = self._wait(doc["job"])
            rnd.sample("miss", "plan", (time.perf_counter() - t0) * 1e3)
            miss = doc

            t0 = time.perf_counter()
            status_hit, hit = call(self.tracer, "server.resubmit",
                                   self.server.request, "POST", "/v1/plans",
                                   {"plan": plan.to_dict()})
            rnd.sample("hit", "plan", (time.perf_counter() - t0) * 1e3)

            t0 = time.perf_counter()
            status_run, run = call(self.tracer, "server.submit_run",
                                   self.server.request, "POST", "/v1/runs",
                                   {"spec": spec.to_dict()})
            names = []
            if status_run == 202:
                names = call(self.tracer, "server.events",
                             self.server.read_events, run["job"],
                             lambda: fired.append(time.perf_counter()))
                if fired:
                    rnd.sample("first", "run", (fired[0] - t0) * 1e3)
                # The stream ends when the job does.
                run = call(self.tracer, "server.status",
                           self.server.request, "GET",
                           f"/v1/jobs/{run['job']}")[1]
        rnd.cpu_s = proc_cpu_s(pid) - cpu0
        rnd.calibrate()

        ok_miss = self.gate.op(
            status == 202 and miss.get("status") == "done"
            and not miss.get("cached"),
            f"round {index}: plan miss ended {status} {miss.get('status')} "
            f"cached={miss.get('cached')}")
        self.gate.op(
            status_hit == 200 and hit.get("cached") is True
            and ok_miss and hit.get("results") == miss.get("results"),
            f"round {index}: resubmitted plan was not a cached identical "
            f"hit ({status_hit}, cached={hit.get('cached')})")
        ok_run = self.gate.op(
            status_run == 202 and run.get("status") == "done" and bool(fired)
            and names[-1:] == ["status"],
            f"round {index}: streamed run ended {status_run} "
            f"{run.get('status')} with events {names[-3:]}")
        if ok_miss:
            rnd.acts += sum(r["totals"]["accesses"] for r in miss["results"])
        if ok_run:
            rnd.acts += run["result"]["totals"]["accesses"]
        self.served.append((index, miss.get("results"), spec,
                            run.get("result")))
        if index + 1 == RSS_ROUNDS:
            self.rss_mb = proc_peak_rss_mb(self.server.proc.pid)
        return rnd

    def verify(self) -> None:
        """Compare sampled served results with direct in-process runs.

        Round 0's cells also go through the digest gate, and its PRA and
        DRCAT cells are re-run on the ``scalar`` reference engine.
        """
        from dataclasses import replace

        from repro import SimulationResult, run_plan, run_spec

        picks = sorted({self.served[int(i * (len(self.served) - 1)
                                         / max(VERIFY_ROUNDS - 1, 1))][0]
                        for i in range(VERIFY_ROUNDS)})
        for index, results, spec, run_result in self.served:
            if index not in picks or results is None:
                continue
            plan = round_plan(self.seed, index)
            direct = [r.to_dict() for r in run_plan(plan)]
            self.gate.op(direct == results,
                         f"round {index}: served plan results differ from "
                         f"a direct run_plan")
            if run_result is not None:
                self.gate.op(run_spec(spec).to_dict() == run_result,
                             f"round {index}: served run differs from "
                             f"a direct run_spec")
            if index != 0:
                continue
            for cell, doc in zip(plan.specs, results):
                stats = cell_stats(SimulationResult.from_dict(doc))
                label = f"{cell.workload}/{cell.scheme.display_label}"
                error = self.gate.cell(label, stats)
                self.gate.op(error is None, error)
            for i in (0, -1):
                want = cell_stats(SimulationResult.from_dict(results[i]))
                got = cell_stats(run_spec(replace(plan.specs[i],
                                                  engine="scalar")))
                self.gate.op(got == want, f"round 0 cell {i}: scalar engine "
                                          f"gives {got}, served {want}")

    def health(self) -> dict:
        """The counters of ``GET /v1/health`` this benchmark reports."""
        _status, doc = self.server.request("GET", "/v1/health")
        return {
            "result_cache_hits": doc["result_cache"]["hits"],
            "result_cache_misses": doc["result_cache"]["misses"],
            "journal_writes": doc["journal"]["writes"],
            "journal_bytes": doc["journal"]["bytes"],
            "lock_contended": doc["locks"].get("contended", 0),
        }


def run(name: str, seed: int, seconds: float, trace: bool, gate,
        work: Path, env: dict, spans_path: Path | None) -> tuple[dict, list]:
    """One benchmark run; returns ``(metrics, report lines)``."""
    bench = ServedWorkload(seed, gate, work, env)
    try:
        setups = bench.setup()
        start = time.perf_counter()
        untraced = rounds_until(seconds / 2 if trace else seconds, start,
                                bench.run_round)
        if trace:
            bench.tracer = Tracer()
            before = bench.health()
            traced = rounds_until(
                seconds, start,
                lambda i: bench.run_round(len(untraced) + i))
            after = bench.health()
        rss = bench.rss_mb or proc_peak_rss_mb(bench.server.proc.pid)
    finally:
        if bench.server is not None:
            bench.server.stop()
    bench.verify()
    lines = [f"rounds: {len(untraced)} untraced"
             + (f", {len(traced)} traced" if trace else "")
             + "; setup repeats "
             + ", ".join(f"{s:.3f}x{k:.3f}" for s, k in setups) + " s"]
    if not trace:
        lines.append(sample_note(untraced))
        return end_to_end(setups, untraced, rss, mean_cpu=True), lines

    tracer = bench.tracer
    n = len(traced)
    scale = sum(r.scale for r in traced) / n
    wall = sum(r.wall_s for r in traced)
    table = layer_table(tracer.spans, wall)
    names = name_totals(tracer.spans)
    submit = names.get("server.submit", {"total_s": 0.0, "calls": 1})
    poll = names.get("server.poll", {"total_s": 0.0, "calls": 0})
    metrics = {
        "server.submit_ms":
            submit["total_s"] / submit["calls"] * 1e3 * scale,
        "server.poll_ms": poll["total_s"] / poll["calls"] * 1e3 * scale
        if poll["calls"] else 0.0,
        "server.polls_per_job": poll["calls"] / n,
        "other.self_s": table["other"]["self_s"] / n * scale,
        "trace.overhead_cpu_s":
            sum(r.cpu_s * r.scale for r in traced) / n
            - sum(r.cpu_s * r.scale for r in untraced) / len(untraced),
    }
    for key in after:
        metrics[f"server.{key}"] = (after[key] - before[key]) / n
    if spans_path is not None:
        tracer.write(spans_path)
        lines.append(f"spans -> {spans_path} ({len(tracer.spans)} spans)")
    lines.append("client-side span table (traced rounds, per round):")
    lines.append(f"  {'span':<22}{'s':>10}{'share':>9}{'calls':>8}")
    for span_name, row in sorted(names.items()):
        lines.append(f"  {span_name:<22}{row['total_s'] / n:>10.4f}"
                     f"{row['total_s'] / wall:>9.1%}{row['calls'] / n:>8.1f}")
    lines.append(f"  {'other':<22}{table['other']['self_s'] / n:>10.4f}"
                 f"{table['other']['share']:>9.1%}")
    return metrics, lines
