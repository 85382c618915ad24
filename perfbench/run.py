"""Benchmark for planarinv: end-to-end call latency and throughput, and
per-layer spans, on the workloads defined in ``workloads.py``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-gallery --seed 1 --seconds 30 --trace 0

One process runs one workload: it imports the checkout's ``src/planarinv``,
builds the inputs (set-up), then calls ``planarinv.cli.main`` in a closed
loop with one caller, one round of every case at a time, until ``--seconds``
have passed.  Every answer is checked against the workload's oracle.  A
fixed reference kernel (``reference.py``) runs between every two calls, and
the timings are reported at reference speed: each call's wall time is scaled
by the kernel's nominal time over its measured time around that call, which
takes out the drift of a shared host's speed.  Wall-clock figures are
printed too.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# Before anything can load numpy: keep any future numpy kernel on one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from reference import NOMINAL_MS, reference_ms  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 6  # fresh processes timed for setup_s, besides this one

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_checkout():
    """Import ``planarinv`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        planarinv = importlib.import_module("planarinv")
        importlib.import_module("planarinv.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import planarinv from {SRC}: {exc}") from exc
    where = Path(planarinv.__file__).resolve()
    if where.parent != SRC / "planarinv":
        raise BenchError(f"planarinv resolved to {where}, not to this checkout's {SRC}")
    return planarinv


def setup(workload: str, seed: int, limit: int | None):
    """Import the program and build the workload: the part set-up time covers.

    Returns the set-up time in s and the reference kernel's time in ms,
    measured right after it in the same process (median of three runs).
    """
    t0 = clock()
    planarinv = import_checkout()
    cases = workloads.WORKLOADS[workload](planarinv, seed)[:limit]
    seconds = clock() - t0
    ref_ms = statistics.median(reference_ms(clock) for _ in range(3))
    return planarinv, cases, (seconds, ref_ms)


def probe_setup(args) -> tuple[float, float]:
    """Set-up time and reference time of a fresh process running this workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["reference_ms"]


def environment(planarinv) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    try:
        numpy_version = importlib.metadata.version("numpy")  # without importing it
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "planarinv": str(Path(planarinv.__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def tail(calls_ms: list[float], percentile: int) -> tuple[float, int]:
    """The percentile of the calls, and how many calls lie beyond it."""
    value = statistics.quantiles(calls_ms, n=100, method="inclusive")[percentile - 1]
    return value, sum(ms > value for ms in calls_ms)


class Rounds:
    """The timed phase: whole rounds of the workload until time is up."""

    def __init__(self, cases, runner, seed: int):
        self.cases = cases
        self.runner = runner
        self.rng = random.Random(seed)
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tallies: dict[str, int] = {}  # verdict subcases and known defects, first round
        self.round_ms: list[float] = []
        self.refs_ms: list[float] = []  # one kernel run before every call, one at the end

    def run_round(self, traced: bool = False) -> dict:
        """Run every case once; returns the round's call times and output bytes."""
        order = list(self.cases)
        self.rng.shuffle(order)
        first = not self.round_ms
        calls_ms, labels, output_bytes = [], [], 0
        for case in order:
            # every call starts from a collected heap, as in a fresh process
            gc.collect()
            self.refs_ms.append(reference_ms(clock))
            outcome = self.runner.run(case)
            errors = outcome.errors
            ref = self.first_digest.setdefault(case.label, outcome.digest)
            if outcome.digest != ref:
                errors = errors + ["output differs from this case's first call"]
            self.attempted += 1
            if errors:
                self.failed += 1
                self.failures.append(f"{case.label}: {'; '.join(errors)}")
            if first:
                key = workloads.verdict_key(outcome.verdict)
                if key is not None:
                    self.tallies[key] = self.tallies.get(key, 0) + 1
                for defect in outcome.known_defects:
                    self.tallies[defect] = self.tallies.get(defect, 0) + 1
            calls_ms.append(outcome.seconds * 1e3)
            labels.append(case.label)
            output_bytes += outcome.output_bytes
        self.round_ms.append(sum(calls_ms) + sum(self.refs_ms[-len(order):]))
        return {"calls_ms": calls_ms, "labels": labels, "output_bytes": output_bytes,
                "traced": traced}

    def more(self, started: float, seconds: float, min_rounds: int) -> bool:
        """Start another round while it would end closer to the deadline."""
        if len(self.round_ms) < min_rounds:
            return True
        mean_s = sum(self.round_ms) / len(self.round_ms) / 1e3
        return clock() - started + mean_s / 2 < seconds


def run(args) -> dict:
    planarinv, cases, own_setup = setup(args.workload, args.seed, args.limit)
    if args.setup_only:
        return {"setup_s": own_setup[0], "reference_ms": own_setup[1]}
    env = environment(planarinv)
    setups = [own_setup]
    cli = sys.modules["planarinv.cli"]

    if TMP.exists():
        shutil.rmtree(TMP)
    TMP.mkdir()
    OUT.mkdir(exist_ok=True)
    runner = workloads.CaseRunner(cli, str(TMP), clock)
    rounds = Rounds(cases, runner, args.seed)
    records = []
    layer_rounds = []
    first_tracer = None
    started = clock()
    try:
        while rounds.more(started, args.seconds, 2):
            # a traced run alternates untraced and traced rounds, so the
            # overhead is measured under the same conditions
            traced = bool(args.trace) and len(records) % 2 == 1
            if traced:
                tracer = Tracer(clock)
                tracer.install()
            try:
                record = rounds.run_round(traced)
            finally:
                if traced:
                    tracer.remove()
            records.append(record)
            if traced:
                layer_rounds.append((tracer.layer_metrics(), record["output_bytes"]))
                first_tracer = first_tracer or tracer
            # set-up probes between rounds sample the host at different moments
            if len(setups) <= SETUP_PROBES:
                setups.append(probe_setup(args))
        rounds.refs_ms.append(reference_ms(clock))
        while len(setups) <= SETUP_PROBES:
            setups.append(probe_setup(args))
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    scale_to_reference(records, rounds.refs_ms)
    plain = [r for r in records if not r["traced"]]
    percentile = workloads.TAIL_PERCENTILE[args.workload]
    wall = call_metrics(plain, "calls_ms", percentile)
    scaled = call_metrics(plain, "scaled_ms", percentile)
    setup_s = statistics.median(s * NOMINAL_MS / ref for s, ref in setups)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "cases": len(cases),
        "inputs": [{"label": c.label, "argv": c.argv_head, "expect": vars(c.expect)}
                   for c in cases],
        "rounds": len(records), "calls": rounds.attempted,
        "error_rate": rounds.failed / rounds.attempted,
        "setup_samples_s": [s for s, _ in setups],
        "setup_reference_ms": [ref for _, ref in setups],
        "reference_ms": statistics.median(rounds.refs_ms),
        "wall_clock": {"setup_s": statistics.median(s for s, _ in setups),
                       "maps_per_s": wall[0], "call_ms.p50": wall[1], "call_ms.tail": wall[2]},
        "tail_percentile": percentile, "tail_beyond": scaled[3],
        "tail_samples": scaled[4],
        "tallies": rounds.tallies, "failures": rounds.failures[:20],
    }
    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "maps_per_s": (scaled[0], "1/s"),
            "call_ms.p50": (scaled[1], "ms"),
            "call_ms.tail": (scaled[2], "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(layer_rounds, records, rounds.tallies)
        first_tracer.write_spans(str(OUT / f"{args.workload}.spans.tsv.gz"))
    summary["metrics"] = {k: v for k, (v, _) in metrics.items()}
    summary["rounds_detail"] = records
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return {"summary": summary, "metrics": metrics,
            "attempted": rounds.attempted, "failed": rounds.failed}


def scale_to_reference(records, refs_ms) -> None:
    """Add each call's time at reference speed to the round records.

    ``refs_ms`` holds one kernel run before every call, in call order, and
    one after the last; a call is scaled by the mean of the two around it.
    """
    i = 0
    for r in records:
        r["ref_ms"] = refs_ms[i:i + len(r["calls_ms"])]
        r["scaled_ms"] = []
        for ms in r["calls_ms"]:
            r["scaled_ms"].append(ms * NOMINAL_MS / ((refs_ms[i] + refs_ms[i + 1]) / 2))
            i += 1


def call_metrics(records, key: str, percentile: int):
    """maps_per_s, call_ms.p50, call_ms.tail, calls beyond the tail, call count."""
    calls_ms = [ms for r in records for ms in r[key]]
    tail_ms, beyond = tail(calls_ms, percentile)
    return (len(calls_ms) / (sum(calls_ms) / 1e3), statistics.median(calls_ms),
            tail_ms, beyond, len(calls_ms))


def layer_metrics(layer_rounds, records, tallies) -> dict:
    """Per-round means of the traced rounds' layer metrics, with units."""
    out = {}
    for name, first in layer_rounds[0][0].items():
        if name.endswith("_ms"):
            unit = "ms"
        elif name.endswith("_per_s"):
            unit = "1/s"
        elif name.endswith(("_ratio", "_per_invert")):
            unit = "ratio"
        else:
            unit = "bytes" if name.endswith("bytes") else "count"
            out[name] = (first, unit)  # work done is exact: the first traced round
            continue
        out[name] = (statistics.fmean(m[name] for m, _ in layer_rounds), unit)
    out["cli.output_bytes"] = (layer_rounds[0][1], "bytes")
    for key in workloads.TALLY_KEYS:
        out[f"oracle.{key}"] = (tallies.get(key, 0), "count")

    def throughput(traced):
        ms = [x for r in records if r["traced"] == traced for x in r["calls_ms"]]
        return len(ms) / (sum(ms) / 1e3)

    out["trace.throughput_ratio"] = (throughput(True) / throughput(False), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first N cases of each round (for the self-check)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(result))
        return 0
    s = result["summary"]
    print(f"# perfbench {s['workload']} seed={s['seed']} seconds={s['seconds']} "
          f"trace={s['trace']}")
    print(f"# env {json.dumps(s['env'])}")
    print(f"# {s['calls']} calls in {s['rounds']} rounds of {s['cases']} cases; "
          f"error_rate {s['error_rate']:g} ratio ({result['failed']}/{result['attempted']})")
    if not args.trace:
        print(f"# call_ms.tail is p{s['tail_percentile']} of {s['tail_samples']} calls, "
              f"{s['tail_beyond']} of them beyond it; "
              f"call_ms.p50 is the median of all calls; "
              f"setup_s is the median of {len(s['setup_samples_s'])} fresh processes")
        print(f"# timings are at reference speed (kernel {NOMINAL_MS:g} ms; it took a median "
              f"{s['reference_ms']:.3f} ms here); wall clock: "
              + ", ".join(f"{k} {v:.6g}" for k, v in s["wall_clock"].items()))
    print(f"# outputs of the first round: {json.dumps(s['tallies'], sort_keys=True)}")
    for failure in s["failures"]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:36s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
