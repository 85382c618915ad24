"""Command-line front end: analyze maps, trace foliations, browse the gallery.

Commands
--------
analyze   run the full verification pipeline and write a JSON report
foliate   trace leaves of the induced foliation to CSV and/or SVG
gallery   list the built-in maps or show one entry's formula and answers

Exit status is 0 iff every requested phase completed; the content of the
verdicts does not affect it (an honest "no hypothesis verified" analysis
still exits 0).  Phase failures are reported to stderr with a phase tag
and exit nonzero.  Reports are deterministic apart from the timing fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from .expr import EvaluationError, PlanarMap, parse
from .foliation import InversionError, diagonalize_involution, trace_leaves
from .gallery import get as gallery_get, list_entries
from .involution import (
    FixedPointScan,
    GridSample,
    Region,
    find_fixed_points,
    fix_origin,
    verify_involution,
)
from .linalg2 import Mat2, Spectrum
from .linearize import InjectivityCertificate, injectivity_scan, standard_map
from .spectral import ConditionVerdict, SpectrumSample, theorem_verdict
from .svgplot import write_portrait

_MAX_REPORTED_FIXED_POINTS = 64

_PHASE_ERRORS = (EvaluationError, InversionError, ValueError, KeyError, OSError)


def _fail(command: str, phase: str, exc: Exception) -> int:
    message = str(exc) if not isinstance(exc, KeyError) else str(exc.args[0])
    print(f"{command}: [{phase}] {message}", file=sys.stderr)
    return 1


# ----------------------------------------------------------------------
# map/window resolution
# ----------------------------------------------------------------------

def _parse_gallery_spec(text: str) -> tuple[str, int | None]:
    parts = text.split(":")
    if len(parts) == 1:
        return parts[0], None
    if len(parts) == 2:
        try:
            return parts[0], int(parts[1])
        except ValueError:
            raise ValueError(f"bad gallery parameter {parts[1]!r}: expected an integer") from None
    raise ValueError(f"bad gallery spec {text!r}: expected NAME or NAME:n")


def _check_flags(args) -> None:
    for flag in ("tol", "step"):
        value = getattr(args, flag, 1.0)  # --step is foliate's only
        if not 0.0 < value < math.inf:
            raise ValueError(f"bad --{flag} {value!r}: expected a finite number > 0")
    for flag in ("grid", "scan"):
        value = getattr(args, flag, 2)  # --scan is analyze's only
        if value < 2:
            raise ValueError(f"bad --{flag} {value!r}: expected at least 2")
    leaves = getattr(args, "leaves", None)
    if leaves is not None and leaves < 1:
        raise ValueError(f"bad --leaves {leaves!r}: expected at least 1")


def _load(args) -> tuple[PlanarMap, str, tuple[float, float] | None, Region]:
    """Check the flags, then return the map, its source, the fixed point that
    was moved to the origin (or None) and the window.  A map that does not fix
    the origin is recentered, so every window and point is in its coordinates."""
    _check_flags(args)
    spec = args.map_spec
    if spec.startswith("gallery:"):
        entry = gallery_get(*_parse_gallery_spec(spec[len("gallery:"):]))
        planar_map, offset, window = entry.map, entry.recentered_at, entry.window
        source = f"gallery:{entry.name}" + ("" if entry.n is None else f":{entry.n}")
    else:
        planar_map, offset = fix_origin(parse(spec))
        source, window = spec, Region(-5.0, 5.0, -5.0, 5.0)
    if args.window is not None:
        try:
            vals = [float(v) for v in args.window.split(",")]
        except ValueError:
            raise ValueError(f"bad --window {args.window!r}: expected XMIN,XMAX,YMIN,YMAX") from None
        if len(vals) != 4:
            raise ValueError(f"bad --window {args.window!r}: expected four comma-separated numbers")
        window = Region(*vals)
    return planar_map, source, offset, window.with_grid(args.grid)


# ----------------------------------------------------------------------
# report serialization
# ----------------------------------------------------------------------

def _ser_point(p: tuple[float, float]) -> list[float]:
    return [float(p[0]), float(p[1])]


def _ser_mat(m: Mat2) -> list[list[float]]:
    return [[m.a11, m.a12], [m.a21, m.a22]]


def _ser_complex(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _ser_spectrum(s: Spectrum) -> dict:
    return {"lambda1": _ser_complex(s.lambda1), "lambda2": _ser_complex(s.lambda2)}


def _ser_sample(sample: SpectrumSample | None) -> dict | None:
    if sample is None:
        return None
    return {
        "point": _ser_point(sample.point),
        "spectrum": _ser_spectrum(sample.spectrum),
        "trace_product": sample.trace_product,
    }


def _ser_condition(cond: ConditionVerdict) -> dict:
    margin = cond.margin
    return {
        "condition": cond.condition,
        "holds_on_window": cond.holds_on_window,
        "margin": margin if math.isfinite(margin) else None,
        "witness": _ser_sample(cond.witness),
    }


def _ser_fixed_points(scan: FixedPointScan) -> dict:
    return {
        "count": len(scan.points),
        "kind": scan.kind,
        "seeds_converged": scan.seeds_converged,
        "seeds_skipped": scan.seeds_skipped,
        "points": [
            {
                "location": _ser_point(fp.location),
                "classification": fp.classification,
                "jacobian": _ser_mat(fp.jacobian),
            }
            for fp in scan.points[:_MAX_REPORTED_FIXED_POINTS]
        ],
    }


def _ser_injectivity(cert: InjectivityCertificate, scan_n: int,
                     collision_tol: float, separation_min: float) -> dict:
    return {
        "status": cert.status,
        "witness_pair": None if cert.witness_pair is None else
        [_ser_point(cert.witness_pair[0]), _ser_point(cert.witness_pair[1])],
        "cells_checked": cert.cells_checked,
        "scan_n": scan_n,
        "collision_tol": collision_tol,
        "separation_min": separation_min,
    }


def _write_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------

def cmd_analyze(args) -> int:
    timings: dict[str, float] = {}

    def timed(phase, fn):
        t0 = time.perf_counter()
        result = fn()
        timings[phase] = (time.perf_counter() - t0) * 1e3
        return result

    phase = "setup"
    try:
        # an expression map's kernels compile here, as fix_origin evaluates it at 0
        planar_map, source, offset, region = timed(phase, lambda: _load(args))
    except _PHASE_ERRORS as exc:
        return _fail("analyze", phase, exc)

    report = {
        "map_source": source,
        "window": {"x_min": region.x_min, "x_max": region.x_max,
                   "y_min": region.y_min, "y_max": region.y_max, "grid_n": region.grid_n},
        "flags": {
            "grid": region.grid_n,
            "tol": args.tol,
            "scan": args.scan,
        },
    }
    if offset is not None:
        report["recentered_at"] = _ser_point(offset)
    # each phase fills its own field in place; one that does not run leaves None
    report.update(dict.fromkeys((
        "involution", "orientation", "fixed_points", "conditions", "theorem_verdict",
        "linearizable_on_window", "injectivity", "foliation_kind")))

    try:
        phase = "verify"
        # one Jacobian per window node, read by every grid phase below
        sample = timed("sample", lambda: GridSample(planar_map, region))
        check = timed(phase, lambda: verify_involution(sample, args.tol))
        report["involution"] = {
            "max_residual": check.max_residual,
            "passed": check.passed,
            "worst_point": _ser_point(check.worst_point),
        }
        if not check.passed:
            # not an involution: later phases are meaningless, report honestly
            report["conditions"] = []
            report["theorem_verdict"] = (
                "not an involution on the window "
                f"(max residual {check.max_residual:.3e} at "
                f"({check.worst_point[0]:g}, {check.worst_point[1]:g}))"
            )
            report["linearizable_on_window"] = False
        else:
            phase = "fixed-points"
            scan = timed(phase, lambda: find_fixed_points(sample, args.tol))
            report["fixed_points"] = _ser_fixed_points(scan)

            phase = "spectrum"
            assessment = timed(phase, lambda: theorem_verdict(sample))
            report["orientation"] = {
                "kind": assessment.orientation.kind,
                "min_abs_det": assessment.orientation.min_abs_det,
            }
            report["conditions"] = [_ser_condition(c) for c in assessment.conditions]
            report["theorem_verdict"] = assessment.verdict
            report["linearizable_on_window"] = assessment.linearizable_on_window

            phase = "injectivity"
            h = standard_map(planar_map)
            # the spectrum was the sample's last reader: free it before the
            # scan, whose grids are the largest allocation
            del sample
            # a window narrower than 1 scales the collision tolerance with it,
            # as it does the separation, so that neighbouring nodes are no collision
            tol, sep = 1e-6 * min(1.0, region.diameter), 1e-3 * region.diameter
            cert = timed(phase, lambda: injectivity_scan(h, region, args.scan, tol, sep))
            report["injectivity"] = _ser_injectivity(cert, args.scan, tol, sep)

            phase = "foliation-kind"
            try:
                report["foliation_kind"] = diagonalize_involution(h.linear_part).kind
            except ValueError:
                pass  # identity linear part

        report["timings_ms"] = timings
        phase = "write"
        _write_report(report, args.out)
    except _PHASE_ERRORS as exc:
        return _fail("analyze", phase, exc)
    return 0


# ----------------------------------------------------------------------
# foliate
# ----------------------------------------------------------------------

def cmd_foliate(args) -> int:
    if args.svg is None and args.csv is None:
        print("foliate: specify --svg PATH and/or --csv PATH", file=sys.stderr)
        return 2

    phase = "setup"
    try:
        planar_map, source, offset, region = _load(args)
    except _PHASE_ERRORS as exc:
        return _fail("foliate", phase, exc)
    # the window, the leaves and the CSV are in the recentered coordinates
    title = f"foliation of {source}"
    if offset is not None:
        recentered_at = f"({offset[0]:g}, {offset[1]:g})"
        title += f", recentered at {recentered_at}"

    try:
        phase = "verify"
        sample = GridSample(planar_map, region)
        check = verify_involution(sample, args.tol)
        if not check.passed and not args.force:
            print(
                f"foliate: [{phase}] not an involution on the window "
                f"(max residual {check.max_residual:.3e}); use --force to trace anyway",
                file=sys.stderr,
            )
            return 1

        phase = "spectrum"
        certified = False
        verdict = "skipped (--force)"
        if check.passed:
            assessment = theorem_verdict(sample)
            certified = assessment.linearizable_on_window
            verdict = assessment.verdict
        if not certified and not args.force:
            print(
                f"foliate: [{phase}] {verdict}; use --force to trace the "
                "foliation without a certificate",
                file=sys.stderr,
            )
            return 1

        phase = "standard-map"
        h = standard_map(planar_map)
        fol = diagonalize_involution(h.linear_part)

        phase = "trace"
        leaves = trace_leaves(h, fol, region, args.step, args.leaves)
        invariance = max((leaf.invariance for leaf in leaves), default=0.0)

        phase = "fixed-points"
        points = []
        if args.svg is not None and check.passed:
            # only the portrait marks the fixed points
            points = find_fixed_points(sample, args.tol).points

        phase = "write"
        if args.csv is not None:
            _write_leaf_csv(args.csv, leaves)
        if args.svg is not None:
            write_portrait(args.svg, region, leaves, points, title=title)
    except _PHASE_ERRORS as exc:
        return _fail("foliate", phase, exc)

    truncated = sum(1 for leaf in leaves if leaf.truncated)
    max_residual = max((leaf.residual for leaf in leaves), default=0.0)
    if offset is not None:
        print(f"recentered at: {recentered_at}")
    print(f"foliation kind: {fol.kind}")
    print(f"leaves traced: {len(leaves)} ({truncated} truncated)")
    print(f"max leaf residual: {max_residual:.3e}")
    print(f"max invariance residual: {invariance:.3e}")
    print(f"certificate: {'verified' if certified else 'UNCERTIFIED'} ({verdict})")
    return 0


def _write_leaf_csv(path: str, leaves) -> None:
    """One row per leaf point, as ``csv.writer`` writes them: no field (an
    int or a float ``repr``) needs quoting, and rows end in ``\\r\\n``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("leaf_id,leaf_parameter,point_index,x,y,residual\r\n")
        for leaf_id, leaf in enumerate(leaves):
            head = f"{leaf_id},{leaf.parameter!r},"
            fh.write("".join(
                f"{head}{i},{p[0]!r},{p[1]!r},{res!r}\r\n"
                for i, (p, res) in enumerate(zip(leaf.points, leaf.point_residuals))))


# ----------------------------------------------------------------------
# gallery
# ----------------------------------------------------------------------

def cmd_gallery(args) -> int:
    if args.action == "list":
        for name in list_entries():
            print(f"{name:<16} {gallery_get(name).description}")
        return 0
    if args.name is None:
        print("gallery: show needs an entry name", file=sys.stderr)
        return 2
    try:
        name, n = _parse_gallery_spec(args.name)
        entry = gallery_get(name, n)
    except (KeyError, ValueError) as exc:
        return _fail("gallery", "lookup", exc)
    print(f"name:        {entry.name}" + (f" (n = {entry.n})" if entry.n is not None else ""))
    print(f"formula:     {entry.formula}")
    print(f"description: {entry.description}")
    print(f"window:      [{entry.window.x_min:g}, {entry.window.x_max:g}] x "
          f"[{entry.window.y_min:g}, {entry.window.y_max:g}]")
    print(f"orientation: {entry.orientation}")
    print(f"expected verdict: {entry.expected_verdict}")
    if entry.foliation_equation:
        print(f"foliation:   {entry.foliation_equation}")
    if entry.recentered_at is not None:
        print(f"recentered at fixed point ({entry.recentered_at[0]:g}, "
              f"{entry.recentered_at[1]:g})")
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_map_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("map_spec",
                     help="expression pair like '(x - y^3, -y)' or gallery:NAME[:n]")
    sub.add_argument("--window", default=None,
                     help="XMIN,XMAX,YMIN,YMAX (default: gallery window or -5,5,-5,5)")
    sub.add_argument("--grid", type=int, default=41, help="grid nodes per axis (default 41)")
    sub.add_argument("--tol", type=float, default=1e-9,
                     help="involution / fixed-point tolerance > 0 (default 1e-9)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's one parser, built at the first call and shared by every
    later ``main`` call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="planarinv",
        description="Analyze planar involutions: verification, spectral conditions, "
                    "explicit linearization, and invariant foliations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the full pipeline and write a JSON report")
    _add_map_args(pa)
    pa.add_argument("--scan", type=int, default=201,
                    help="injectivity scan resolution per axis (default 201)")
    pa.add_argument("--out", default=None, help="report path (default: stdout)")
    pa.set_defaults(func=cmd_analyze)

    pf = sub.add_parser("foliate", help="trace the induced foliation to CSV/SVG")
    _add_map_args(pf)
    pf.add_argument("--leaves", type=int, default=None,
                    help="number of leaves, at least 1 (default: 24 radial / 21 vertical)")
    pf.add_argument("--step", type=float, default=1e-2,
                    help="continuation step > 0 in the target plane (default 0.01)")
    pf.add_argument("--svg", default=None, help="SVG portrait output path")
    pf.add_argument("--csv", default=None, help="leaf polyline CSV output path")
    pf.add_argument("--force", action="store_true",
                    help="trace even when no linearization hypothesis is verified")
    pf.set_defaults(func=cmd_foliate)

    pg = sub.add_parser("gallery", help="list built-in maps or show one entry")
    pg.add_argument("action", choices=("list", "show"))
    pg.add_argument("name", nargs="?", default=None, help="entry name for show, NAME[:n]")
    pg.set_defaults(func=cmd_gallery)

    return parser


def _merge_window_flag(argv: list[str]) -> list[str]:
    """Join '--window' with its value so negative bounds survive argparse.

    argparse treats '-5,5,-5,5' as an option string; '--window=-5,5,-5,5'
    is unambiguous, so rewrite the two-token form into it.
    """
    merged = []
    i = 0
    while i < len(argv):
        if argv[i] == "--window" and i + 1 < len(argv):
            merged.append(f"--window={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    return merged


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_merge_window_flag(argv))
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
