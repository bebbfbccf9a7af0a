"""Self-test of the benchmark on a tiny stream.

Run from the repo root: ``python -m pytest perfbench -q``.  Every
workload runs untraced and traced; each run must pass its output checks
and emit exactly the metrics ``BENCHMARK.json`` names, with their units.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import END_TO_END, PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == [
        "exact-inproc", "gateway-process"
    ]
    for key, table, limit in (
        ("end_to_end", END_TO_END, 16), ("per_layer", PER_LAYER, 128)
    ):
        declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
        assert declared == table
        assert len(declared) <= limit
        assert all(NAME.match(name) for name in declared)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        name: (m["value"] == m["value"], m["unit"])
        for name, m in result["metrics"].items()
    } == {m["name"]: (True, m["unit"]) for m in declared}
    for m in declared:
        assert f"({m['better']} is better)" in proc.stdout


def test_degenerate_tail_is_refused():
    import dataclasses

    import numpy as np

    from fleetdata import SIZES, DegenerateStream, alarm_quality

    class Tail:  # disk 1 fails on day 4, disk 2 stays healthy
        eval_serials = np.array([1, 1, 2])
        eval_days = np.array([0, 4, 0])
        eval_detect = np.array([False, True, False])
        eval_false_alarm = np.array([False, False, True])

    with pytest.raises(DegenerateStream):
        alarm_quality(Tail(), [(1, 4)], SIZES["full"])
    lenient = dataclasses.replace(
        SIZES["full"], min_failed_disks=1, min_healthy_disks=1
    )
    counts = alarm_quality(Tail(), [(1, 4)], lenient)
    assert (counts.fdr, counts.far) == (1.0, 0.0)


def test_bare_directory_fails(tmp_path):
    import shutil

    bare = tmp_path / "bare"
    shutil.copytree(
        HERE, bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-inproc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
