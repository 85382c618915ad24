"""Self-contained SVG portraits of traced foliations.

One polyline per leaf, fixed points as circles, the window as a frame.
Output uses no external assets and contains nothing nondeterministic, so
repeated runs with the same inputs produce identical files.
"""

from __future__ import annotations

from .foliation import Leaf
from .involution import FixedPoint, Region

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#17becf", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22",
)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def write_portrait(
    path: str,
    region: Region,
    leaves: list[Leaf],
    fixed_points: list[FixedPoint],
    title: str,
) -> None:
    """Write the SVG document of the leaves inside the window to ``path``."""
    w = region.width
    h = region.height
    stroke = max(w, h) / 400.0
    flip = region.y_min + region.y_max  # SVG y grows downward

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(region.x_min)} {_fmt(region.y_min)} {_fmt(w)} {_fmt(h)}" '
        f'width="640" height="{_fmt(640.0 * h / w)}">',
        f"  <title>{title}</title>",
    ]
    parts.append(
        f'  <rect x="{_fmt(region.x_min)}" y="{_fmt(region.y_min)}" '
        f'width="{_fmt(w)}" height="{_fmt(h)}" '
        f'fill="white" stroke="#333333" stroke-width="{_fmt(stroke)}"/>'
    )
    for i, leaf in enumerate(leaves):
        if len(leaf.points) < 2:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        # _fmt inline: a polyline holds thousands of coordinates
        coords = " ".join(f"{x:.6g},{flip - y:.6g}" for x, y in leaf.points)
        dash = ' stroke-dasharray="0.1,0.05"' if leaf.truncated else ""
        parts.append(
            f'  <polyline fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(stroke)}"{dash} points="{coords}"/>'
        )
    for fp in fixed_points:
        x, y = fp.location
        parts.append(
            f'  <circle cx="{_fmt(x)}" cy="{_fmt(flip - y)}" r="{_fmt(2.5 * stroke)}" '
            f'fill="#000000"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
