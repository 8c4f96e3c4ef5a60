"""Determinism of the benchmark itself.

Two traced runs with one seed must agree exactly on every per-layer count
and ratio and on the output digest; another seed must run without a failed
task.  Slow (several minutes): run it on its own with

    python3 -m pytest perfbench/test_determinism.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("allxi", "bigseed-walk", "sweep-small", "cgl-audit")
EXACT_SUFFIXES = (".calls", ".cells", ".term_pairs", ".terms_out", ".raised")


def _run(workload: str, seed: int, trace: int):
    """One benchmark run of a single pass; returns (record, result line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _exact(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(EXACT_SUFFIXES) or name.startswith("ratio.")
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    rec1, res1 = _run(workload, 0, 1)
    rec2, res2 = _run(workload, 0, 1)
    assert res1["failed"] == 0 and res2["failed"] == 0, rec1["failures"] + rec2["failures"]
    assert _exact(res1) == _exact(res2)
    assert rec1["digest"] == rec2["digest"]
    assert rec1["span_count"] == rec2["span_count"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_has_no_failures(workload):
    rec, res = _run(workload, 1000, 0)
    assert res["correct"] and res["failed"] == 0, rec["failures"]
    assert rec["metrics"]["failed_frac"]["value"] == 0
