"""Smoke self-test of the benchmark at tiny size.

    python3 perfbench/test_smoke.py        # or: python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced with ``--size tiny`` and checks
that the result line names exactly the metrics of BENCHMARK.json with
their units, that no job failed, and that a directory without the
library's sources gets a non-zero exit and no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
        assert result["correct"] is True, proc.stderr
        assert result["attempted"] >= 1 and result["failed"] == 0, proc.stderr
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert len(want) == len(SPEC[key]), f"duplicate {key} metric names"
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (workload, trace, set(got) ^ set(want))
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), name


def check_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == "", proc.stdout


def test_irregular_d2():
    check_workload("irregular-d2")


def test_orbit_stats():
    check_workload("orbit-stats")


def test_moran_types():
    check_workload("moran-types")


def test_without_sources():
    check_without_sources()


if __name__ == "__main__":
    for w in WORKLOADS:
        check_workload(w)
        print(f"ok {w}")
    check_without_sources()
    print("ok without sources")
