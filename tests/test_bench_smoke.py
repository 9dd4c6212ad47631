"""Smoke test of the benchmark harness: short traced runs of two workloads.

``catalog`` writes plain reports; ``dense_table`` writes a --table report,
whose rows the harness checks against the spec it built.

The traced run wraps the stage functions through module globals of
``eikohelix.cli`` and ``eikohelix.classify``; a layer whose function moved
or was renamed is reported absent, which fails this test.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _assert_traced_run_clean(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0, proc.stdout
    absent = sorted(name for name, metric in result["metrics"].items() if metric.get("absent"))
    assert absent == []


def test_catalog_benchmark_traced_run():
    _assert_traced_run_clean("catalog")


def test_dense_table_benchmark_traced_run():
    _assert_traced_run_clean("dense_table")
