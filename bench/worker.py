"""Child process of the benchmark: runs a plan written by ``run.py``.

    python3 bench/worker.py setup <plan.json>
        time ``import eikohelix`` plus parsing every spec file of the plan
    python3 bench/worker.py run <plan.json> <seconds> <trace 0|1>
        run whole passes over the plan's operations, in this process and
        thread, until ``seconds`` have gone by; check every operation
        against its known answer; with trace 1, run a second, traced phase

Each mode prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _close(actual, expected) -> bool:
    return actual is not None and abs(actual - expected) <= 1e-8 * (1.0 + abs(expected))


def check(op: dict, code, stderr: str, report_text: str | None) -> list[str]:
    """Reasons why one operation's outcome differs from its known answer."""
    expect = op["expect"]
    if code != expect["exit"]:
        return [f"exit code {code}, expected {expect['exit']}" + (f" ({stderr.strip()})" if stderr else "")]
    if code != 0:
        return [] if expect["stderr"] in stderr else [f"error {stderr.strip()!r}, expected {expect['stderr']!r}"]
    if report_text is None:
        return ["no report written"]
    try:
        report = json.loads(report_text)
        spec, flags, verdicts = report["spec"], report["classification"], report["verdicts"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    reasons = []
    if (spec.get("dimension"), spec.get("samples")) != (op["dimension"], op["points"]):
        reasons.append(f"spec echo {spec.get('dimension')}/{spec.get('samples')}, expected {op['dimension']}/{op['points']}")
    for key, want in expect["flags"].items():
        if flags.get(key) != want:
            reasons.append(f"{key} = {flags.get(key)}, expected {want}")
    for key, want in expect["verdicts"].items():
        got = verdicts.get(key, {}).get("verdict")
        if got != want:
            reasons.append(f"{key} {got}, expected {want}")
    for key, want in expect["values"].items():
        got = flags.get(key.removeprefix("abs_"))
        if key.startswith("abs_") and got is not None:
            got = abs(got)
        if not _close(got, want):
            reasons.append(f"{key} = {got}, expected {want}")
    if op["table"]:
        rows = report.get("samples") or []
        if len(rows) != op["points"]:
            reasons.append(f"{len(rows)} table rows, expected {op['points']}")
        want = expect["values"]["grad_norm"]
        bad = [row["s"] for row in rows if not _close(row.get("grad_norm"), want)]
        if bad:
            reasons.append(f"table grad_norm off at {len(bad)} rows, first s = {bad[0]}")
    return reasons


# The host's speed drifts by up to 2x over seconds (shared cores), far more
# than a change worth detecting. A fixed probe of interpreter and small-array
# work, timed between operations, tracks that drift; each operation's wall
# time is rescaled to a host on which the probe takes REFERENCE_PROBE_S
# (about its median on a shared 2-vCPU Xeon, Python 3.11, numpy 2.4).
PROBE_EVERY_S = 0.5
REFERENCE_PROBE_S = 0.03


def probe() -> float:
    import numpy as np

    t0 = perf_counter()
    v = np.zeros(3)
    acc = 0.0
    for i in range(16000):
        v = v * 0.5 + 1.0
        acc += float(v[0]) + (i * i) % 7
    return perf_counter() - t0


def setup(plan: dict) -> dict:
    t0 = perf_counter()
    import eikohelix

    for op in plan["ops"]:
        eikohelix.parse_curve_spec(Path(op["spec"]).read_text(encoding="utf-8"))
    wall = perf_counter() - t0
    return {"wall_s": wall, "setup_s": wall * REFERENCE_PROBE_S / probe()}


class Runner:
    """Runs passes over the plan and keeps timings and check results."""

    def __init__(self, plan: dict):
        from eikohelix import cli

        self.cli = cli
        self.ops = plan["ops"]
        self.wall_s: list[list[float]] = []  # one list per pass, in plan order
        self.carried = [0] * len(self.ops)  # grid points that reached a written report
        self.attempted = 0
        self.failures: dict[str, dict] = {}
        self.integrity: list[str] = []
        self._reports: dict[str, str | None] = {}
        self._probes: list[float] = []
        self._probe_at: list[list[int]] = []  # index of the last probe before each operation
        self._last_probe = -PROBE_EVERY_S

    def take_probe(self) -> None:
        self._last_probe = perf_counter()
        self._probes.append(probe())

    def one_pass(self) -> float:
        times, probe_at = [], []
        for i, op in enumerate(self.ops):
            if perf_counter() - self._last_probe >= PROBE_EVERY_S:
                self.take_probe()
            out = Path(op["out"])
            if out.exists():
                out.unlink()
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                t0 = perf_counter()
                try:
                    code = self.cli.main(op["argv"])  # looked up each call, so tracing sees it
                except Exception:  # an unexpected raise is a failed operation
                    code = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
                elapsed = perf_counter() - t0
            times.append(elapsed)
            probe_at.append(len(self._probes) - 1)
            self.attempted += 1
            text = out.read_text(encoding="utf-8") if out.exists() else None
            self.carried[i] = op["points"] if text is not None else 0
            reasons = check(op, code, err.getvalue(), text)
            if reasons:
                entry = self.failures.setdefault(op["name"], {"count": 0, "reasons": reasons})
                entry["count"] += 1
            previous = self._reports.setdefault(op["name"], text)
            if previous != text:
                self.integrity.append(f"{op['name']}: report differs between passes")
        self.wall_s.append(times)
        self._probe_at.append(probe_at)
        return sum(times)

    def rescaled_s(self) -> list[list[float]]:
        """Operation times rescaled by the probes taken just before and after."""
        self.take_probe()
        probes = self._probes
        return [
            [t * REFERENCE_PROBE_S * 2 / (probes[k] + probes[k + 1]) for t, k in zip(times, at)]
            for times, at in zip(self.wall_s, self._probe_at)
        ]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(plan: dict, seconds: float, trace: bool) -> dict:
    import numpy

    runner = Runner(plan)
    # With tracing the budget is shared: half untraced, half traced.
    budget = seconds / 2 if trace else seconds
    start = perf_counter()
    while not runner.wall_s or perf_counter() - start < budget:
        runner.one_pass()
    result = {
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
        },
        "carried": runner.carried,
        "untraced_passes": len(runner.wall_s),
        "rss_peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        per_pass = []
        traced_wall = 0.0
        start = perf_counter()
        while not per_pass or perf_counter() - start < budget:
            before = dict(tracer.counts)
            traced_wall += runner.one_pass()
            per_pass.append({k: v - before[k] if k != "jets.order" else v for k, v in tracer.counts.items()})
        if any(counts != per_pass[0] for counts in per_pass):
            runner.integrity.append(f"exact counts differ between traced passes: {per_pass}")
        result["trace"] = {
            "traced_wall_s": traced_wall,
            "passes": len(per_pass),
            "self_s": tracer.self_s,
            "counts": per_pass[0],
            "absent": sorted(tracer.absent_metrics()),
        }
    result.update(
        wall_s=runner.wall_s,
        op_s=runner.rescaled_s(),
        attempted=runner.attempted,
        failures=runner.failures,
        integrity=runner.integrity,
    )
    return result


def main(argv: list[str]) -> int:
    mode, plan_path = argv[0], argv[1]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    if mode == "setup":
        result = setup(plan)
    elif mode == "run":
        result = run(plan, float(argv[2]), argv[3] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
