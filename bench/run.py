"""End-to-end and per-layer benchmark of ``eikohelix verify``.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``, no installation needed. Each operation is one in-process
``eikohelix.cli.main(["verify", <spec>, "--json", "--out", <report>])``
call, made in a single thread of a fresh child process, and its report is
checked against the answer known from how the spec was built (see
``workloads.py``). Operation times are medians over the run's passes of
wall times rescaled for the host's speed drift (see ``worker.py``); the
plain wall-clock throughput is printed beside them. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones from a separate
traced phase (see ``tracer.py``). The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it list the environment, each failed
operation with its reason, and every metric with its unit.

``correct`` is false when a report is not byte-identical between passes
or the exact counts do not repeat. An operation whose exit code, error,
flags, verdicts or values differ from the known answer is counted in
``failed`` and listed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads
from tracer import COUNTS, LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170

# The program runs single-threaded; keep numpy's BLAS that way in children.
CHILD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_plan(workload: str, seed: int, work: Path) -> Path:
    ops = workloads.build(workload, seed)
    for i, op in enumerate(ops):
        spec, out = work / f"{i:03d}.spec", work / f"{i:03d}.json"
        spec.write_text(op.pop("document"), encoding="utf-8")
        op["spec"], op["out"] = str(spec), str(out)
        op["argv"] = ["verify", str(spec), "--json", *(["--table"] if op["table"] else []), "--out", str(out)]
    plan = work / "plan.json"
    plan.write_text(json.dumps({"ops": ops}), encoding="utf-8")
    return plan


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_times(op_s: list[list[float]]) -> list[float]:
    """Each operation's median time over the given passes, in seconds."""
    return [statistics.median(times) for times in zip(*op_s)]


def points_per_s(raw: dict, op_s: list[list[float]]) -> float:
    return sum(raw["carried"]) / sum(op_times(op_s))


def end_to_end(raw: dict, setup_s: list[float]) -> dict:
    op_ms = [t * 1000.0 for t in op_times(raw["op_s"])]
    # p95 over the workload's operations: only many_small has ten beyond it
    p95 = statistics.quantiles(op_ms, n=20, method="inclusive")[18] if len(op_ms) > 1 else op_ms[0]
    return {
        "points_per_s": _metric(points_per_s(raw, raw["op_s"]), "points/s"),
        "spec_p50_ms": _metric(statistics.median(op_ms), "ms"),
        "spec_p95_ms": _metric(p95, "ms"),
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "rss_peak_mib": _metric(raw["rss_peak_mib"], "MiB"),
    }


def per_layer(raw: dict) -> dict:
    trace = raw["trace"]
    absent = set(trace["absent"])
    metrics = {}
    for name in LAYERS:
        share = name.removesuffix("_s") + ".share"
        if name in absent:
            metrics[name] = {"value": None, "unit": "s", "absent": True}
            metrics[share] = {"value": None, "unit": "fraction", "absent": True}
            continue
        self_s = trace["self_s"][name]
        metrics[name] = _metric(self_s / trace["passes"], "s")
        metrics[share] = _metric(self_s / trace["traced_wall_s"], "fraction")
    for name in COUNTS:
        unit = "bytes" if name == "report.bytes" else "count"
        metrics[name] = {"value": None, "unit": unit, "absent": True} if name in absent else _metric(trace["counts"][name], unit)
    n = raw["untraced_passes"]
    untraced, traced = points_per_s(raw, raw["op_s"][:n]), points_per_s(raw, raw["op_s"][n:])
    metrics["trace.overhead"] = _metric(1.0 - traced / untraced if untraced else None, "fraction")
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        plan = write_plan(name, seed, work)
        # Set-up and peak memory come from fresh processes: ru_maxrss is a
        # lifetime maximum, and import cost is paid once per process.
        setup = [] if trace else [_child("setup", str(plan)) for _ in range(SETUP_REPEATS)]
        raw = _child("run", str(plan), str(seconds), "1" if trace else "0")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(f["count"] for f in raw["failures"].values())
    env = raw["env"]
    print(f"workload {name} (seed {seed}): {workloads.WORKLOADS[name]}")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, cpu {env['cpu']}")
    n = raw["untraced_passes"]
    wall, rescaled = points_per_s(raw, raw["wall_s"][:n]), points_per_s(raw, raw["op_s"][:n])
    print(f"  {n} untraced passes of {len(raw['carried'])} operations; "
          f"{wall:.6g} points/s by wall clock, {rescaled:.6g} rescaled to the reference host")
    for op_name, f in sorted(raw["failures"].items()):
        print(f"  FAILED {op_name} x{f['count']}: {'; '.join(f['reasons'])}")
    for message in raw["integrity"]:
        print(f"  INCORRECT {message}")
    print(f"  fail_ratio = {failed / raw['attempted']:.6g} ({failed} failed of {raw['attempted']} attempted)")
    if setup:
        print(f"  set-up {statistics.median([s['wall_s'] for s in setup]):.6g} s by wall clock")
    metrics = per_layer(raw) if trace else end_to_end(raw, [s["setup_s"] for s in setup])
    for key, m in metrics.items():
        value = "absent" if m.get("absent") else "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {key:<28} {value} {m['unit']}")
    return {"correct": not raw["integrity"], "attempted": raw["attempted"], "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "eikohelix" / "__init__.py").is_file():
        print(f"error: no eikohelix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
