#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the repository root:

    python3 perfbench/smoke.py

It runs every workload of BENCHMARK.json briefly in both modes and checks
that each prints exactly the metrics BENCHMARK.json names, with their units,
and that every swept cell passes. It then corrupts one pinned reference row
and checks that the run reports failed cells, so the correctness check
cannot pass vacuously. Last, it runs the benchmark in a copy that holds only
BENCHMARK.json and perfbench/ and checks that it exits nonzero without a
result. It takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SECONDS = "0.5"  # below the minimum repetitions, so each run does the least work


def run(root: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", SECONDS, "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=root, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(run(ROOT, workload["name"], trace))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            named = {m["name"]: m["unit"] for m in spec[kind]}
            assert printed == named, (workload["name"], kind, printed, named)
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), (name, metric)
            print(f"smoke: {workload['name']} trace {trace}: {len(printed)} metrics, "
                  f"{result['attempted']} cells ok")


def check_corrupted_reference() -> None:
    reference = json.loads((HERE / "reference" / "desk-snr.json").read_text())
    row = reference["rows"][0]
    row["successes"] += -1 if row["successes"] > 0 else 1
    OUT.mkdir(exist_ok=True)
    corrupted = OUT / "corrupted-desk-snr.json"
    corrupted.write_text(json.dumps(reference))
    result = result_of(run(ROOT, "desk-snr", 0, "--reference", str(corrupted)))
    assert not result["correct"] and result["failed"] > 0, result
    print(f"smoke: corrupted reference row: {result['failed']} of "
          f"{result['attempted']} cells failed, as expected")


def check_bare_copy() -> None:
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run(bare, "desk-snr", 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"smoke: without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_corrupted_reference()
    check_bare_copy()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
