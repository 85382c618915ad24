"""Workload definitions, the seeded map generator and the answer oracle.

A workload is a list of cases.  Each case is one ``planarinv`` command line
plus the answer the benchmark expects from it; the answers come from this
file, never from the program under test.  One round runs every case once,
in an order shuffled from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import traceback
from dataclasses import dataclass

DEFAULT_GRID = 41  # the CLI's defaults, checked in every gallery report
DEFAULT_SCAN = 201
GENERATED_GRID = 15
GENERATED_SCAN = 61

RESIDUAL_LIMIT = 1e-9
# Known defect: on a Jacobian that is a 2x2 Jordan block at -1 the
# closed-form eigenvalues lose half their digits (a double root), so the
# spectrum-shift deviation comes out near sqrt(machine epsilon) instead of
# 0.  On that family a deviation above RESIDUAL_LIMIT is tallied as
# "shift_over_limit" and only one above DOUBLE_ROOT_LIMIT is an error.
DOUBLE_ROOT_LIMIT = 1e-6

PRESERVING = "preserving"
REVERSING = "reversing"

# Theorem family per orientation: preserving maps may use any Theorem A
# subcase, reversing maps must use Theorem B, and entry C verifies nothing.
THEOREM_A = "Theorem A("
THEOREM_B = "Theorem B"
NO_HYPOTHESIS = "no hypothesis"

# verdict prefix -> subcase tally key (reported as a deterministic output)
VERDICT_KEYS = (
    ("Theorem A(a)", "theorem_a_a"),
    ("Theorem A(b)", "theorem_a_b"),
    ("Theorem A(c)", "theorem_a_c"),
    ("Theorem B", "theorem_b"),
    ("no hypothesis", "no_hypothesis"),
)
TALLY_KEYS = tuple(key for _, key in VERDICT_KEYS) + ("shift_over_limit",)


@dataclass(frozen=True)
class Expect:
    orientation: str
    theorem: str  # THEOREM_A, THEOREM_B or NO_HYPOTHESIS
    injective: bool
    foliation: str | None = None  # "radial" / "vertical" for foliate cases
    double_root: bool = False  # Jacobian is a Jordan block at -1 everywhere
    grid: int = DEFAULT_GRID
    scan: int = DEFAULT_SCAN


@dataclass
class Case:
    label: str
    command: str  # "analyze" or "foliate"
    argv_head: list[str]  # command line without the output paths
    expect: Expect


# ----------------------------------------------------------------------
# gallery workloads
# ----------------------------------------------------------------------

# name, CLI spec, orientation, theorem family, injective, foliation kind
_GALLERY = (
    ("A1", "A1:1", REVERSING, THEOREM_B, True, "vertical"),
    ("A2", "A2:1", PRESERVING, THEOREM_A, True, "radial"),
    ("A3", "A3:1", REVERSING, THEOREM_B, True, "vertical"),
    ("A4", "A4:1", PRESERVING, THEOREM_A, True, "radial"),
    ("B", "B", REVERSING, THEOREM_B, True, "vertical"),
    ("C", "C", PRESERVING, NO_HYPOTHESIS, False, "radial"),
    ("identity", "identity", PRESERVING, THEOREM_A, True, None),
    ("minus-identity", "minus-identity", PRESERVING, THEOREM_A, True, "radial"),
    ("flip-y", "flip-y", REVERSING, THEOREM_B, True, "vertical"),
)


def _build_gallery(planarinv) -> None:
    """Build every gallery entry once and check its catalogued orientation
    against the table above, so the table cannot drift from the program."""
    for name, spec, orient, _, _, _ in _GALLERY:
        n = int(spec.split(":")[1]) if ":" in spec else None
        entry = planarinv.get(name, n)
        if entry.orientation != orient:
            raise RuntimeError(
                f"gallery entry {name} is catalogued as {entry.orientation}, "
                f"the benchmark expects {orient}")


def analyze_gallery(planarinv) -> list[Case]:
    cases = [
        Case(name, "analyze", ["analyze", f"gallery:{spec}"],
             Expect(orient, theorem, injective))
        for name, spec, orient, theorem, injective, _ in _GALLERY
    ]
    _build_gallery(planarinv)
    return cases


def foliate_gallery(planarinv) -> list[Case]:
    # identity has no canonical foliation and exits 1 by design
    cases = [
        Case(name, "foliate",
             ["foliate", f"gallery:{spec}"] + (["--force"] if name == "C" else []),
             Expect(orient, theorem, injective, kind))
        for name, spec, orient, theorem, injective, kind in _GALLERY
        if kind is not None
    ]
    _build_gallery(planarinv)
    return cases


# ----------------------------------------------------------------------
# seeded generated maps
# ----------------------------------------------------------------------

# family -> (template, parity of q, variable of q, expected orientation,
# theorem family).
# Every template is an involution exactly when q has the stated parity; an
# even q has no constant term, so the origin stays fixed.  On
# reflect-diagonal the eigenvalue is -1, a double root, everywhere: rounding
# can turn the verdict from Theorem A(c) into A(b), which the oracle accepts
# and tallies.
FAMILIES = {
    "shear-flip": ("(x + ({q}), -y)", "odd", "y", REVERSING, THEOREM_B),
    "shear-reflect": ("(-x + ({q}), -y)", "even", "y", PRESERVING, THEOREM_A),
    "swap-diagonal": ("(-y - ({q}), -x + ({q}))", "odd", "((x+y)/2)", REVERSING, THEOREM_B),
    "reflect-diagonal": ("(-x + ({q}), -y - ({q}))", "even", "((x+y)/2)", PRESERVING,
                         THEOREM_A),
}
_DEGREES = {"odd": (1, 3, 5, 7, 9), "even": (2, 4, 6, 8, 10)}
_TERM_COUNTS = (2, 3, 4)
_WINDOW_RADIUS = 5.0  # the CLI's default window for expressions is [-5, 5]^2


def _polynomial(rng: random.Random, degrees: tuple[int, ...], var: str) -> str:
    """q with one monomial of each degree, random signs and coefficients.

    Each coefficient is scaled by 5^-k, so every monomial stays within
    [-1.5, 1.5] on the window: the involution residual then stays far below
    the CLI's default tolerance and no evaluation overflows.
    """
    parts = []
    for k in degrees:
        c = rng.uniform(0.2, 1.5) / _WINDOW_RADIUS ** k
        sign = rng.choice("+-")
        term = f"{c:.6g}*{var}^{k}"
        if parts:
            parts.append(f"{sign} {term}")
        else:
            parts.append(term if sign == "+" else f"-{term}")
    return " ".join(parts)


def generate_maps(seed: int) -> list[tuple[str, str]]:
    """(family, expression) pairs: one map per family and degree set.

    Every family gets every set of 2 to 4 degrees of its parity up to 10
    (25 sets, so 100 maps); the seed draws the signs and coefficients.
    Fixing the shapes keeps the work per round close across seeds, so the
    spread between seeds measures the program, not the draw.
    """
    rng = random.Random(seed)
    maps = []
    for fam, (template, parity, var, _, _) in FAMILIES.items():
        for terms in _TERM_COUNTS:
            for degrees in itertools.combinations(_DEGREES[parity], terms):
                q = _polynomial(rng, degrees, var)
                maps.append((fam, template.format(q=q)))
    return maps


def analyze_generated(planarinv, seed: int) -> list[Case]:
    cases = []
    for i, (fam, expr) in enumerate(generate_maps(seed)):
        try:
            planarinv.parse(expr)
        except planarinv.ParseError:
            pass  # the call fails the same way and counts in error_rate
        _, _, _, orient, theorem = FAMILIES[fam]
        cases.append(Case(
            f"{fam}#{i}", "analyze",
            ["analyze", expr, "--grid", str(GENERATED_GRID), "--scan", str(GENERATED_SCAN)],
            Expect(orient, theorem, True, double_root=fam == "reflect-diagonal",
                   grid=GENERATED_GRID, scan=GENERATED_SCAN)))
    return cases


WORKLOADS = {
    "analyze-gallery": lambda planarinv, seed: analyze_gallery(planarinv),
    "foliate-gallery": lambda planarinv, seed: foliate_gallery(planarinv),
    "analyze-generated": analyze_generated,
}

# call_ms.tail is this percentile of a run's calls.  It is fixed per workload
# so that runs with different numbers of rounds measure the same point: the
# highest whole percentile that left at least 10 calls beyond it in the
# shortest 35 s runs on a 2-vCPU Xeon virtual machine (54, 32 and 200 calls).
# The 11th-slowest call instead jumped between cases as the round count
# changed, by up to 30% between runs.
TAIL_PERCENTILE = {
    "analyze-gallery": 80,
    "foliate-gallery": 70,
    "analyze-generated": 95,
}


# ----------------------------------------------------------------------
# running one case and checking its answer
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    rc: int
    seconds: float
    digest: str  # hash of every output except timings
    output_bytes: int
    verdict: str | None
    errors: list[str]
    known_defects: list[str]  # TALLY_KEYS entries seen on this call


class CaseRunner:
    """Runs cases through ``planarinv.cli.main`` with outputs in ``tmpdir``."""

    def __init__(self, cli, tmpdir: str, clock):
        self.cli = cli
        self.clock = clock
        self.report = os.path.join(tmpdir, "report.json")
        self.csv = os.path.join(tmpdir, "leaves.csv")
        self.svg = os.path.join(tmpdir, "portrait.svg")

    def run(self, case: Case) -> Outcome:
        if case.command == "analyze":
            argv = case.argv_head + ["--out", self.report]
            paths = [self.report]
        else:
            argv = case.argv_head + ["--csv", self.csv, "--svg", self.svg]
            paths = [self.csv]
        for p in (self.report, self.csv, self.svg):
            if os.path.exists(p):
                os.remove(p)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = self.clock()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # how argparse rejects a command line
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed call, not the end of the run
                traceback.print_exc()
                rc = -1
            seconds = self.clock() - t0
        stdout = out.getvalue()
        output_bytes = len(stdout.encode())
        for p in paths:
            if os.path.exists(p):
                with open(p, "rb") as fh:
                    # timing digits vary between calls; leaving them out
                    # makes the byte count repeat exactly
                    output_bytes += len(_TIMINGS.sub(b"", fh.read()))
        if case.command == "analyze":
            errors, known, verdict, digest = check_analyze(case.expect, rc, self.report)
        else:
            errors, known, verdict, digest = check_foliate(case.expect, rc, stdout,
                                                           self.csv, self.svg)
        if rc != 0:
            errors.append(f"exit status {rc}: {err.getvalue().strip()}")
        return Outcome(rc, seconds, digest, output_bytes, verdict, errors, known)


_TIMINGS = re.compile(rb'\n\s*"timings_ms": \{[^}]*\}')


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def check_analyze(expect: Expect, rc: int, report_path: str):
    """Oracle for one ``analyze`` report: (errors, known defects, verdict, digest)."""
    if rc != 0 or not os.path.exists(report_path):
        return ["no report written"], [], None, ""
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    report.pop("timings_ms", None)
    digest = _digest(json.dumps(report, sort_keys=True).encode())
    errors = []
    flags = report.get("flags") or {}
    if (flags.get("grid"), flags.get("scan")) != (expect.grid, expect.scan):
        errors.append(f"grid/scan {flags.get('grid')}/{flags.get('scan')}, "
                      f"expected {expect.grid}/{expect.scan}")
    verdict = report.get("theorem_verdict") or ""
    if not (report.get("involution") or {}).get("passed"):
        errors.append("involution check did not pass")
    kind = (report.get("orientation") or {}).get("kind")
    if kind != expect.orientation:
        errors.append(f"orientation {kind!r}, expected {expect.orientation!r}")
    if not verdict.startswith(expect.theorem):
        errors.append(f"verdict {verdict[:60]!r}, expected {expect.theorem!r}...")
    linearizable = report.get("linearizable_on_window")
    if linearizable is not (expect.theorem != NO_HYPOTHESIS):
        errors.append(f"linearizable_on_window is {linearizable!r}")
    status = (report.get("injectivity") or {}).get("status")
    want = "NoCollisionFound" if expect.injective else "Collision"
    if status != want:
        errors.append(f"injectivity {status!r}, expected {want!r}")
    known = []
    shift = report.get("spectrum_shift_deviation")
    if shift is not None and not shift <= RESIDUAL_LIMIT:
        if expect.double_root and shift <= DOUBLE_ROOT_LIMIT:
            known.append("shift_over_limit")
        else:
            errors.append(f"spectrum_shift_deviation {shift!r} > {RESIDUAL_LIMIT}")
    return errors, known, verdict, digest


_FOLIATE_LINES = {
    "kind": re.compile(r"^foliation kind: (\w+)$", re.M),
    "leaves": re.compile(r"^leaves traced: (\d+) \(\d+ truncated\)$", re.M),
    "leaf_residual": re.compile(r"^max leaf residual: (\S+)$", re.M),
    "invariance": re.compile(r"^max invariance residual: (\S+)$", re.M),
    "certificate": re.compile(r"^certificate: (\S+) \((.*)\)$", re.M),
}


def check_foliate(expect: Expect, rc: int, stdout: str, csv_path: str, svg_path: str):
    """Oracle for one ``foliate`` run: (errors, known defects, verdict, digest)."""
    if rc != 0:
        return ["foliate failed"], [], None, ""
    found = {k: rx.search(stdout) for k, rx in _FOLIATE_LINES.items()}
    missing = [k for k, m in found.items() if m is None]
    if missing:
        return [f"summary lines missing: {', '.join(missing)}"], [], None, ""
    parts = [stdout.encode()]
    for p in (csv_path, svg_path):
        if not os.path.exists(p):
            return [f"{os.path.basename(p)} not written"], [], None, ""
        with open(p, "rb") as fh:
            parts.append(fh.read())
    errors = []
    verdict = found["certificate"].group(2)
    if not verdict.startswith(expect.theorem):
        errors.append(f"verdict {verdict[:60]!r}, expected {expect.theorem!r}...")
    kind = found["kind"].group(1)
    if kind != expect.foliation:
        errors.append(f"foliation kind {kind!r}, expected {expect.foliation!r}")
    leaves = int(found["leaves"].group(1))
    want_leaves = 24 if expect.foliation == "radial" else 21
    if leaves != want_leaves:
        errors.append(f"{leaves} leaves, expected {want_leaves}")
    for key in ("leaf_residual", "invariance"):
        value = float(found[key].group(1))
        if not value <= RESIDUAL_LIMIT:
            errors.append(f"{key} {value!r} > {RESIDUAL_LIMIT}")
    certificate = found["certificate"].group(1)
    want_cert = "verified" if expect.theorem != NO_HYPOTHESIS else "UNCERTIFIED"
    if certificate != want_cert:
        errors.append(f"certificate {certificate!r}, expected {want_cert!r}")
    return errors, [], verdict, _digest(*parts)


def verdict_key(verdict: str | None) -> str | None:
    for prefix, key in VERDICT_KEYS:
        if verdict and verdict.startswith(prefix):
            return key
    return None
