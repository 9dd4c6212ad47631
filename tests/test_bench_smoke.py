"""Smoke test of the benchmark harness: short traced runs of three workloads.

``catalog`` writes plain reports; ``dense_table`` writes a --table report,
whose rows the harness checks against the spec it built; ``high_n`` runs the
frame at n = 5..13, where it takes most of the time.

The traced run wraps the stage functions through module globals of
``eikohelix.cli`` and ``eikohelix.classify``; a layer whose function moved
or was renamed is reported absent, which fails this test.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _assert_traced_run_clean(workload: str, may_fail: frozenset[str] = frozenset()) -> None:
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
    # each operation that may fail fails at most once per pass
    assert set(re.findall(r"FAILED (\S+) x", proc.stdout)) <= may_fail, proc.stdout
    operations = int(re.search(r"passes of (\d+) operations", proc.stdout).group(1))
    assert result["failed"] * operations <= len(may_fail) * result["attempted"], proc.stdout
    absent = sorted(name for name, metric in result["metrics"].items() if metric.get("absent"))
    assert absent == []


def test_catalog_benchmark_traced_run():
    _assert_traced_run_clean("catalog")


def test_dense_table_benchmark_traced_run():
    _assert_traced_run_clean("dense_table")


def test_high_n_benchmark_traced_run():
    # the n = 13 helix sits at the float64 floor (ROADMAP item 3): its cor41
    # reads 7.7e-9 of its scale on this grid, so a rounding shift may fail
    # it; nothing else may fail
    _assert_traced_run_clean("high_n", frozenset({"high_n/helix_n13"}))
