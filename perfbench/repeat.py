"""Run one workload once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload analyze-gallery --seeds 1-10 [--out FILE]

Runs ``run.py`` once per seed, one run after the other, with
``run_seconds`` from BENCHMARK.json unless ``--seconds`` is given.  For
every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (quartile distance
over median), and, for end-to-end metrics, whether that spread is within
a third of the metric's bound.  ``--out`` writes the runs and the summary
as JSON.  Exits 1 if a run fails or reports an incorrect answer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": values})
        shown = " ".join(f"{k}={v:.6g}" for k, v in values.items() if k in bounds)
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['failed']}/{result['attempted']} failed {shown}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        verdict = ""
        if name in bounds:
            verdict = "steady" if spread < bounds[name] / 3 else \
                f"SPREAD ABOVE A THIRD OF BOUND {bounds[name]}"
        print(f"{name:36s} median {median:14.6g} q1 {q1:14.6g} q3 {q3:14.6g} "
              f"spread {spread:.4f} {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
             "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
