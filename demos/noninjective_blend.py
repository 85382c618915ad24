#!/usr/bin/env python3
"""The counterexample entry: a smooth involution whose standard map collapses.

The rotation blend agrees with -p far from two disks but rotates by a full
half turn near them, so on the unit disk around (3, 3) it is the pure
translation p -> p - (6, 6).  There its Jacobian is the identity, the
sampled spectrum contains 1, and every linearization hypothesis fails.
The standard map is constant on that disk (Dh = 0 there, and det Dh changes
sign nowhere: a collapse, not a fold), which the injectivity scan
demonstrates with an explicit witness pair, and the traced "foliation"
visibly collapses there.
"""

from planarinv import (
    GridSample,
    Region,
    diagonalize_involution,
    get,
    injectivity_scan,
    sample_spectrum,
    check_condition_A,
    standard_map,
    trace_leaves,
)
from planarinv.svgplot import write_portrait


def main() -> None:
    psi = get("C").map
    window = Region(-6.0, 6.0, -6.0, 6.0)

    print("on the unit disk around (3, 3) the map is a translation:")
    for p in ((3.0, 3.0), (3.5, 3.0), (2.8, 2.4)):
        print(f"  psi{p} = {psi.evaluate(p)}")

    checks = check_condition_A(sample_spectrum(GridSample(psi, window)))
    print("hypotheses on the window: "
          f"identity-spectrum {checks.a.holds_on_window}, "
          f"gap {checks.b.holds_on_window}, real {checks.c.holds_on_window}")
    w = checks.b.witness
    print(f"binding witness at {w.point}: eigenvalues "
          f"{w.spectrum.lambda1:g} and {w.spectrum.lambda2:g}")

    h = standard_map(psi)
    print(f"h is constant there: h(2.6, 3.2) = {h.evaluate((2.6, 3.2))}, "
          f"h(3.4, 2.9) = {h.evaluate((3.4, 2.9))}")

    cert = injectivity_scan(h, Region(0.0, 6.0, 0.0, 6.0), scan_n=201)
    print(f"injectivity scan: {cert.status}, witness pair {cert.witness_pair}")

    fol = diagonalize_involution(h.linear_part)
    leaves = trace_leaves(h, fol, window)
    truncated = sum(1 for leaf in leaves if leaf.truncated)
    write_portrait("foliation_blend.svg", window, leaves, [],
                   title="degenerate foliation of the rotation blend")
    print(f"uncertified foliation traced: {len(leaves)} rays, {truncated} truncated "
          "-> foliation_blend.svg")


if __name__ == "__main__":
    main()
