#!/usr/bin/env python3
"""Trace invariant foliations and write SVG portraits.

Two families show up.  The sinh-conjugated reversing involution carries a
foliation by topological lines (the pullback of vertical lines through the
standard map); the even shear, which preserves orientation, carries a
foliation of the punctured plane by topological rays.
"""

from planarinv import (
    GridSample,
    diagonalize_involution,
    find_fixed_points,
    get,
    standard_map,
    trace_leaves,
)
from planarinv.svgplot import write_portrait


def portrait(name: str, path: str) -> None:
    entry = get(name)
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    leaves = trace_leaves(h, fol, entry.window)
    scan = find_fixed_points(GridSample(entry.map, entry.window))
    write_portrait(path, entry.window, leaves, scan.points,
                   title=f"invariant foliation of {name}")
    worst = max(leaf.residual for leaf in leaves)
    print(f"{name}: {fol.kind} foliation, {len(leaves)} leaves, "
          f"max residual {worst:.2e} -> {path}")


def main() -> None:
    portrait("B", "foliation_B.svg")
    portrait("A2", "foliation_A2.svg")
    portrait("A1", "foliation_A1.svg")


if __name__ == "__main__":
    main()
