"""Built-in catalog of planar involutions with known closed-form answers.

Each entry bundles a ready-made map with its expected orientation class,
linearization verdict, and (where a closed form exists) the standard map
and the leaf equation of the induced foliation, for regression testing and
quick CLI exploration.

The polynomial families A1-A4 take a degree parameter n >= 0 (default 1).
Two of them stop fixing the origin at n = 0 (the power drops to a
constant); the loader recenters those at their unique fixed point rather
than silently shifting, and records the offset on the entry.

Entry "C" is a rotation blend that deforms -I inside two disks while
leaving it untouched elsewhere, built directly as expression trees that
share their subtrees (see :func:`_rotation_blend`).  It is an exact smooth
involution whose Jacobian is the identity on a whole unit disk, so no
linearization hypothesis can hold and its standard map collapses the disk
to one point.  There is intentionally no entry for the non-constructive
existence examples: only maps with evaluable formulas are listed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .expr import ExprNode, PlanarMap, parse
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


def _rotation_blend() -> PlanarMap:
    """Entry C: ``phi(p) = -(p + (R(tp) - I)(p + c) + (R(tm) - I)(p - c))``,
    with ``c = (3, 3)`` and ``R(t) = [[cos t, sin t], [-sin t, cos t]]``.

    The angles are ``tp = bump(|p + c|^2)`` and ``tm = -bump(|p - c|^2)``,
    where ``bump(d)`` is pi for ``d <= 1``, 0 for ``d >= 2`` and the C^1
    smoothstep ``pi*(3u^2 - 2u^3)`` of ``u = 2 - d`` between.  ``u`` is
    ``max(s, 0) - max(s - 1, 0)`` with ``s = 2 - d``, and ``max(a, 0)`` is
    ``(a + abs(a))*0.5``, exact in floats, so ``u`` is exactly 1 on the unit
    disks and exactly 0 outside the disks of radius sqrt(2).  The angle
    field is odd under ``p -> -p``, which makes the map an involution.
    Outside both disks both angles are 0, ``cos 0 - 1`` and ``sin 0`` are 0,
    and the value is exactly ``-p``.  Each subtree is built once and shared.
    """
    x, y = ExprNode("x"), ExprNode("y")

    def num(value: float) -> ExprNode:
        return ExprNode("num", value=value)

    def op(kind: str, *args: ExprNode) -> ExprNode:
        return ExprNode(kind, args)

    def ramp(a: ExprNode) -> ExprNode:  # max(a, 0)
        return op("mul", op("add", a, op("abs", a)), num(0.5))

    def bump(d: ExprNode) -> ExprNode:
        s = op("sub", num(2.0), d)
        u = op("sub", ramp(s), ramp(op("sub", s, num(1.0))))
        cubic = op("sub", op("mul", op("mul", num(3.0), u), u),
                   op("mul", op("mul", op("mul", num(2.0), u), u), u))
        return op("mul", num(math.pi), cubic)

    def turn(shift: float, negate: bool) -> tuple[ExprNode, ExprNode]:
        """``(R(t) - I) w`` for ``w = p + (shift, shift)``, where ``t`` is
        ``bump(|w|^2)``, negated if ``negate``."""
        wx, wy = op("add", x, num(shift)), op("add", y, num(shift))
        theta = bump(op("add", op("mul", wx, wx), op("mul", wy, wy)))
        if negate:
            theta = op("neg", theta)
        c, s = op("sub", op("cos", theta), num(1.0)), op("sin", theta)
        return (op("add", op("mul", c, wx), op("mul", s, wy)),
                op("sub", op("mul", c, wy), op("mul", s, wx)))

    (px, py), (mx, my) = turn(3.0, False), turn(-3.0, True)
    return PlanarMap.from_expressions(
        op("neg", op("add", op("add", x, px), mx)),
        op("neg", op("add", op("add", y, py), my)), "rotation-blend")


def _entry_a(name: str, n: int) -> GalleryEntry:
    odd = 2 * n + 1
    even = 2 * n
    if name == "A1":
        formula = f"(x - y^{odd}, -y)"
        return GalleryEntry(
            name, n, parse(formula), Region(-5, 5, -5, 5),
            "reversing", "Theorem B", formula,
            "odd-degree triangular shear composed with a y-flip",
            known_h=lambda x, y, k=odd: (x - y**k / 2.0, y),
            foliation_equation=f"2*x - y^{odd} = c",
        )
    if name == "A2":
        formula = f"(-x + y^{even}, -y)"
        known_h = (lambda x, y, k=even: (x - y**k / 2.0, y)) if n >= 1 else None
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
    w = ((x + y) / 2.0) ** k
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
            "C", None, _rotation_blend(), Region(-6, 6, -6, 6),
            "preserving", "none",
            "-(p + (R(tp) - I)(p + c) + (R(tm) - I)(p - c)), c = (3, 3), "
            "R(t) = [[cos t, sin t], [-sin t, cos t]], tp = bump(|p + c|^2), "
            "tm = -bump(|p - c|^2)",
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
