#!/usr/bin/env python3
"""Walk a hand-written involution through the full analysis pipeline.

The map here is an odd shear composed with a sign flip.  Composing it with
itself cancels the shear exactly, so it is an involution; the script
verifies that on a window, classifies the orientation, finds the fixed
set, tests the linearization hypotheses, and certifies injectivity of the
standard map empirically.
"""

from planarinv import (
    GridSample,
    Region,
    find_fixed_points,
    injectivity_scan,
    orientation,
    parse,
    standard_map,
    theorem_verdict,
    verify_involution,
)

SOURCE = "(x + 2*y^3, -y)"


def main() -> None:
    print(f"map: {SOURCE}")
    m = parse(SOURCE)
    window = Region(-4.0, 4.0, -4.0, 4.0)
    # the value and Jacobian at every window node, read by every grid phase
    sample = GridSample(m, window)

    check = verify_involution(sample)
    print(f"involution check: max residual {check.max_residual:.3e} "
          f"-> {'pass' if check.passed else 'FAIL'}")

    o = orientation(sample)
    print(f"orientation: {o.kind} (min |det D| = {o.min_abs_det:g})")

    scan = find_fixed_points(sample)
    print(f"fixed set: a {scan.kind}, {len(scan.points)} distinct roots in the window")

    assessment = theorem_verdict(sample)
    print(f"verdict: {assessment.verdict}")

    h = standard_map(m)
    cert = injectivity_scan(h, window, scan_n=201)
    print(f"injectivity scan: {cert.status} over {cert.cells_checked} image cells")

    # the standard map straightens the shear into the pure flip
    p = (1.0, 1.5)
    print(f"h{p} = {h.evaluate(p)}  (second coordinate survives, shear is gone)")


if __name__ == "__main__":
    main()
