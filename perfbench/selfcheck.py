"""Self-check of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. Runs every workload in BENCHMARK.json at a tiny size, untraced and
   traced, and checks that each run is correct and emits exactly the
   metrics BENCHMARK.json names, with their units.
2. Feeds the oracle a map that is not an involution, (x + y^2, -y), as if
   an involution were expected, and checks that it counts as an error.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's own files, and checks that it fails without a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def tiny_runs(spec: dict) -> list[str]:
    problems = []
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", wl["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace), "--limit", "2"]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
            where = f"{wl['name']} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {done.stdout[-1500:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append(f"{where}: missing {missing}, unexpected {extra}, "
                                f"wrong units {units}")
            print(f"ok   {where}: {result['attempted']} calls, "
                  f"{len(result['metrics'])} metrics", flush=True)
    return problems


def oracle_catches_wrong_answer() -> list[str]:
    run.import_checkout()
    case = workloads.Case(
        "not-an-involution", "analyze", ["analyze", "(x + y^2, -y)"],
        workloads.Expect(workloads.REVERSING, workloads.THEOREM_B, True))
    with tempfile.TemporaryDirectory(prefix=".perfbench_selfcheck-", dir=ROOT) as tmp:
        runner = workloads.CaseRunner(sys.modules["planarinv.cli"], tmp, time.perf_counter)
        outcome = runner.run(case)
    if not outcome.errors:
        return ["the oracle accepted (x + y^2, -y) as an involution"]
    print(f"ok   oracle rejects (x + y^2, -y): {outcome.errors[0]}")
    return []


def fails_without_program(spec: dict) -> list[str]:
    with tempfile.TemporaryDirectory(prefix=".perfbench_selfcheck-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, Path(tmp) / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp, timeout=180)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"ran without the program: exit {done.returncode}, stdout {done.stdout[-300:]!r}"]
    print(f"ok   fails without src/: exit {done.returncode}: {done.stderr.strip()}")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = oracle_catches_wrong_answer()
    problems += fails_without_program(spec)
    problems += tiny_runs(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
