"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload tree-hot --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` runs half the budget untraced and half with every layer's
entry points wrapped in timing spans, and prints every per-layer metric
plus the layer table.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.

The run is isolated: every ``REPRO_*`` variable is dropped from the
environment, and the trace store, result caches and server cache live in
a private directory under ``.perfbench-work/`` that is removed afterwards.
Span files of traced runs go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

WORKLOADS = ("tree-hot", "stream-cold", "served-mix")
#: The seed ``digests.json`` records results for.
DEFAULT_SEED = 1


def load_schema(root: Path = ROOT) -> dict:
    """``BENCHMARK.json``: metric names, units and directions."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def isolated_env(work: Path) -> dict:
    """This process's environment without ``REPRO_*``, for the program.

    Also mutates ``os.environ`` the same way, so in-process runs see the
    defaults plus a private trace store.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_TRACE_STORE_DIR"] = str(work / "traces")
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    if src not in sys.path:
        sys.path.insert(0, src)
    return dict(os.environ)


def fill_unreached(metrics: dict, names: list[dict], workload: str) -> None:
    """Set to 0 the per-layer metrics of layers the workload's tracer
    cannot observe: the server layer on the in-process workloads, and
    the in-process layers on ``served-mix`` (they run in the server)."""
    served = workload == "served-mix"
    for m in names:
        name = m["name"]
        unreached = (not name.startswith(("server.", "other.", "trace."))
                     if served else name.startswith("server."))
        if unreached:
            metrics.setdefault(name, 0.0)


def run_checked(gate, run, *args) -> tuple[dict, list]:
    """``run(*args)``; an exception counts as one failed operation.

    A program defect that raises (a dead server, a cell or a check that
    raises, no latency samples because every probe failed) then still
    ends in the ``FAILED`` lines and a result line with ``correct`` false,
    instead of a crash; the traceback goes to stderr.  Returns
    ``(metrics, report lines)``, both empty after an exception.
    """
    try:
        return run(*args)
    except Exception as exc:  # counted and reported, never swallowed
        traceback.print_exc()
        gate.op(False, f"run raised {exc!r}")
        return {}, []


def result_line(gate, metrics: dict, names: list[dict]) -> dict:
    """The final JSON object: exactly the named metrics, with units.

    A failed run reports 0 for the metrics it could not measure.
    """
    missing = [m["name"] for m in names if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in names})
    if gate.failed:
        metrics = {**{name: 0.0 for name in missing}, **metrics}
        missing = []
    if missing or extra:
        raise KeyError(f"metric set differs from BENCHMARK.json: "
                       f"missing {missing}, unexpected {extra}")
    return {
        "correct": gate.failed == 0 and not gate.missing_digests(),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in names
        },
    }


def print_report(gate, line: dict) -> None:
    """The metric table, ``failed_ratio``, failures and the result line."""
    for name, metric in line["metrics"].items():
        print(f"  {name:<30}{metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<30}"
          f"{gate.failed / max(gate.attempted, 1):>16.6g} ratio "
          f"({gate.failed} of {gate.attempted} operations)")
    for message in gate.messages[:20]:
        print(f"FAILED: {message}")
    for label in gate.missing_digests():
        print(f"FAILED: recorded cell {label} was not produced")
    print(json.dumps(line))


def parse_args(argv=None) -> argparse.Namespace:
    """Command-line arguments."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = parse_args(argv)
    schema = load_schema()
    names = schema["per_layer" if args.trace else "end_to_end"]
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=ROOT / ".perfbench-work"))
    try:
        env = isolated_env(work)
        try:
            import repro
            from repro.experiments.cache import code_fingerprint
        except ImportError as exc:
            print(f"perfbench: cannot import the program from "
                  f"{ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        from perfbench import gate as gate_mod

        gate = gate_mod.Gate(args.workload, args.seed,
                             gate_mod.load_digests())
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} "
              f"repro={repro.__version__} code={code_fingerprint()} "
              f"digests={'checked' if gate.checks_digests else 'not recorded'}")
        spans_path = None
        if args.trace:
            out = ROOT / ".perfbench-out"
            out.mkdir(exist_ok=True)
            spans_path = out / f"spans-{args.workload}-seed{args.seed}.tsv"
        if args.workload == "served-mix":
            from perfbench import served as runner
        else:
            from perfbench import sim_workloads as runner
        metrics, lines = run_checked(
            gate, runner.run, args.workload, args.seed, args.seconds,
            bool(args.trace), gate, work, env, spans_path)
        for line in lines:
            print(line)
        if args.trace:
            fill_unreached(metrics, names, args.workload)
        line = result_line(gate, metrics, names)
        print_report(gate, line)
        return 0 if line["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
