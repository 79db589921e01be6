"""Self-test of the benchmark: every workload at a tiny size, in both modes.

    python3 perfbench/selftest.py

Run from the repository root; takes a minute or two. For each workload and
each of --trace 0 and --trace 1 it checks that the benchmark exits 0, that
its last line is the result object with exactly the keys correct, attempted,
failed and metrics, that the metrics are exactly the ones BENCHMARK.json
names for that mode, each with its unit and a finite value (end-to-end values
positive), and that the gate passed. It also checks that the benchmark
refuses to run, printing no result, in a directory that holds only
BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180


def invoke(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(proc, spec: dict, trace: int) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"gate did not pass: {proc.stdout.strip()[-1500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{m['name']}: end-to-end value {value} is not positive")
    return problems


def check_bare_directory() -> list:
    """In a directory with only BENCHMARK.json and perfbench/, the benchmark
    must fail without printing a result."""
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = invoke(bare, "unweighted-beams", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return ["exited 0 without the library sources"]
    if '"correct"' in proc.stdout:
        return ["printed a result without the library sources"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_result(invoke(ROOT, workload, trace), spec, trace)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")
    problems = check_bare_directory()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok  '} refuses to run without the library sources")
    for p in problems:
        print(f"     {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
