"""Smoke test of the benchmark harness: one short traced catalog run.

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


def test_catalog_benchmark_traced_run():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "0",
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
