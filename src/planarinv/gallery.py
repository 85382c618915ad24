"""Built-in catalog of planar involutions with known closed-form answers.

Each entry bundles a ready-made map with its expected orientation class,
linearization verdict, and (where a closed form exists) the standard map
and the leaf equation of the induced foliation, for regression testing and
quick CLI exploration.

The polynomial families A1-A4 take a degree parameter n >= 0 (default 1).
Two of them stop fixing the origin at n = 0 (the power drops to a
constant); the loader recenters those at their unique fixed point rather
than silently shifting, and records the offset on the entry.

Entry "C" is a native map: a rotation blend that deforms -I inside two
disks while leaving it untouched elsewhere.  It is an exact smooth
involution whose Jacobian is the identity on a whole unit disk, so no
linearization hypothesis can hold and its standard map collapses the disk
to one point.  There is intentionally no entry for the non-constructive
existence examples: only maps with evaluable formulas are listed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import dual
from .dual import clamp, cos, sin, value_of
from .expr import PlanarMap, parse
from .involution import Region, fix_origin

_NAMES = ("A1", "A2", "A3", "A4", "B", "C", "identity", "minus-identity", "flip-y")
_PARAMETRIC = ("A1", "A2", "A3", "A4")


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    n: int | None
    map: PlanarMap
    window: Region
    orientation: str  # expected: "preserving" or "reversing"
    expected_verdict: str  # "Theorem A(a)" | "Theorem A(c)" | "Theorem B" | "none"
    formula: str
    description: str
    known_h: Callable[[float, float], tuple[float, float]] | None = None
    foliation_equation: str | None = None
    recentered_at: tuple[float, float] | None = None


def list_entries() -> tuple[str, ...]:
    """All entry names; the non-constructive existence examples are absent."""
    return _NAMES


def _bump(t):
    """Smooth profile: pi on [0, 1], 0 beyond 2, C^1 smoothstep between.

    The input is a squared radius, so the pi-plateau covers the unit disk
    and the support ends at radius sqrt(2).
    """
    u = clamp(2.0 - abs(t), 0.0, 1.0)
    return math.pi * (3.0 * u * u - 2.0 * u * u * u)


def _rotation_blend(x, y):
    """Deformation of -I: rotates -p about (3,3) or (-3,-3) by a bump angle.

    The angle field theta(q) = bump(|q-(3,3)|^2) - bump(|q+(3,3)|^2) is odd
    under q -> -q, which is exactly what makes the composite an involution;
    the two bump supports are disjoint, so at most one branch is active.
    """
    qx, qy = -x, -y
    dp = (qx - 3.0) * (qx - 3.0) + (qy - 3.0) * (qy - 3.0)
    if value_of(dp) < 2.0:
        theta = _bump(dp)
        cx, cy = 3.0, 3.0
    else:
        dm = (qx + 3.0) * (qx + 3.0) + (qy + 3.0) * (qy + 3.0)
        if value_of(dm) < 2.0:
            theta = -_bump(dm)
            cx, cy = -3.0, -3.0
        else:
            return qx, qy
    ux, uy = qx - cx, qy - cy
    c, s = cos(theta), sin(theta)
    return (cx + c * ux + s * uy, cy - s * ux + c * uy)


def example_c_map() -> PlanarMap:
    """The rotation-blend involution (entry "C") as a native map.

    Derivative propagation flows through the bump profile, the squared
    norms, and the rotation, so Jacobians are exact wherever the map is
    differentiable (everywhere: the bump is C^1 with flat junctions).
    """
    return PlanarMap.from_function(_rotation_blend, "rotation-blend")


def _entry_a(name: str, n: int) -> GalleryEntry:
    odd = 2 * n + 1
    even = 2 * n
    if name == "A1":
        formula = f"(x - y^{odd}, -y)"
        return GalleryEntry(
            name, n, parse(formula), Region(-5, 5, -5, 5),
            "reversing", "Theorem B", formula,
            "odd-degree triangular shear composed with a y-flip",
            known_h=lambda x, y, k=odd: (x - dual.ipow(y, k) / 2.0, y),
            foliation_equation=f"2*x - y^{odd} = c",
        )
    if name == "A2":
        formula = f"(-x + y^{even}, -y)"
        known_h = (lambda x, y, k=even: (x - dual.ipow(y, k) / 2.0, y)) if n >= 1 else None
        planar_map, offset = fix_origin(parse(formula))
        return GalleryEntry(
            name, n, planar_map, Region(-5, 5, -5, 5),
            "preserving", "Theorem A(c)", formula,
            "even-degree perturbation of the point reflection -I",
            known_h=known_h if offset is None else None,
            recentered_at=offset,
        )
    w_pow = odd if name == "A3" else even
    sym = f"((x+y)/2)^{w_pow}"
    if name == "A3":
        formula = f"(-y - {sym}, -x + {sym})"
        return GalleryEntry(
            name, n, parse(formula), Region(-5, 5, -5, 5),
            "reversing", "Theorem B", formula,
            "swap-reflection perturbed along the diagonal",
            known_h=(lambda x, y, k=w_pow: _diagonal_h(x, y, k)) if n >= 1 else None,
        )
    formula = f"(-x + {sym}, -y - {sym})"
    planar_map, offset = fix_origin(parse(formula))
    return GalleryEntry(
        "A4", n, planar_map, Region(-5, 5, -5, 5),
        "preserving", "Theorem A(c)", formula,
        "point reflection perturbed along the diagonal",
        known_h=(lambda x, y, k=w_pow: _diagonal_h(x, y, k)) if offset is None and n >= 1 else None,
        recentered_at=offset,
    )


def _diagonal_h(x: float, y: float, k: int) -> tuple[float, float]:
    w = dual.ipow((x + y) / 2.0, k)
    return (x - w / 2.0, y + w / 2.0)


def get(name: str, n: int | None = None) -> GalleryEntry:
    """Fetch an entry by name; A1-A4 accept the degree parameter n (default 1)."""
    if name not in _NAMES:
        hint = ""
        if name == "D":
            hint = (" (no entry 'D': maps defined only by existence arguments"
                    " have no evaluable formula and are not cataloged)")
        raise KeyError(f"unknown gallery entry {name!r}; available: {', '.join(_NAMES)}{hint}")
    if name in _PARAMETRIC:
        if n is None:
            n = 1
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"entry {name!r} needs an integer parameter n >= 0, got {n!r}")
        return _entry_a(name, n)
    if n is not None:
        raise ValueError(f"entry {name!r} takes no parameter")
    if name == "B":
        formula = ("(asinh((sinh(x) + sinh(y))/2), "
                   "asinh((3*sinh(x) - sinh(y))/2))")
        return GalleryEntry(
            "B", None, parse(formula), Region(-3, 3, -3, 3),
            "reversing", "Theorem B", formula,
            "linear involution conjugated through sinh coordinates",
            foliation_equation="first eigen-coordinate of S h = c",
        )
    if name == "C":
        return GalleryEntry(
            "C", None, example_c_map(), Region(-6, 6, -6, 6),
            "preserving", "none",
            "R(-theta(p)) applied to -p, theta(p) = bump(|p-(3,3)|^2) - bump(|p+(3,3)|^2)",
            "rotation-blend deformation of -I; constant on a unit disk after "
            "the standard map, hence not linearizable",
        )
    if name == "identity":
        return GalleryEntry(
            "identity", None, parse("(x, y)"), Region(-5, 5, -5, 5),
            "preserving", "Theorem A(a)", "(x, y)", "the identity map",
            known_h=lambda x, y: (x, y),
        )
    if name == "minus-identity":
        return GalleryEntry(
            "minus-identity", None, parse("(-x, -y)"), Region(-5, 5, -5, 5),
            "preserving", "Theorem A(c)", "(-x, -y)", "point reflection through the origin",
            known_h=lambda x, y: (x, y),
            foliation_equation="rays from the origin",
        )
    return GalleryEntry(
        "flip-y", None, parse("(x, -y)"), Region(-5, 5, -5, 5),
        "reversing", "Theorem B", "(x, -y)", "reflection across the x-axis",
        known_h=lambda x, y: (x, y),
        foliation_equation="x = c",
    )
