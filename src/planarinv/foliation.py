"""Invariant foliation tracing: preimages of canonical leaves under h.

A linear involution other than the identity is conjugate to -I (radial
case: the punctured plane foliated by rays) or to (x, y) -> (x, -y)
(vertical case: the plane foliated by vertical lines).  The foliation
induced by an involution phi is the family of h-preimages of those
canonical leaves, where h is the standard map; each leaf is traced as a
polyline by marching along the canonical leaf in the target plane and
pulling every target point back through a Newton inversion of h, seeded
with the previous preimage (predictor-corrector continuation).

The Newton step reads h, Dh and phi as plain floats from
``StandardMap.evaluate_with_jacobian``.  Each inversion hands back those
floats at its root, and the next inversion of the march, which starts
there, reads them instead of evaluating h again; so do the leaf residual
and the invariance check, which adds one evaluation of h, at phi(q), per
leaf point.  :func:`leaf_invariance_check` is that check on its own.
:func:`trace_leaves` traces the default family of leaves; for a vertical
foliation it computes the window's eigen-coordinates once, and both the
leaf parameters and every leaf's starting node come from that one grid.

Radial leaves start at radius 1e-3, not 0: the origin does not belong to
the radial foliation and the ray equation is undefined there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .expr import EvaluationError
from .involution import Region
from .linalg2 import IDENTITY, Mat2, is_linear_involution
from .linearize import StandardMap

RADIAL = "radial"
VERTICAL = "vertical"

_RADIAL_START_RADIUS = 1e-3


class InversionError(RuntimeError):
    """Newton inversion of the standard map failed."""

    def __init__(self, reason: str, last_iterate: tuple[float, float]):
        super().__init__(f"{reason} (last iterate ({last_iterate[0]!r}, {last_iterate[1]!r}))")
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class CanonicalFoliation:
    """Canonical foliation of the linear part, with change of basis S.

    S maps eigen-coordinates in: S @ Dphi(0) @ S^{-1} is diag(-1, -1) in
    the radial case and diag(1, -1) in the vertical case.
    """

    kind: str  # RADIAL or VERTICAL
    change_of_basis: Mat2


@dataclass(frozen=True)
class Leaf:
    """Polyline sample of one leaf, tagged with its parameter.

    The parameter is the ray angle (radial) or the constant first
    eigen-coordinate c of S h (vertical).  ``point_residuals`` holds the
    leaf-equation residual at each polyline point; ``truncated`` marks a
    trace cut short by an inversion failure.  ``invariance`` is the
    :func:`leaf_invariance_check` of a traced leaf, kept out of ``repr`` and ``==``.
    """

    parameter: float
    points: list[tuple[float, float]]
    point_residuals: list[float]
    truncated: bool = False
    invariance: float = field(default=0.0, repr=False, compare=False)

    @property
    def residual(self) -> float:
        return max(self.point_residuals, default=0.0)


def diagonalize_involution(linear: Mat2) -> CanonicalFoliation:
    """Canonical foliation kind and change of basis for a linear involution.

    Raises ValueError for the identity (no canonical foliation of this
    kind; the identity case is handled by the spectral verdict upstream)
    and for matrices that are not involutions within 1e-9.
    """
    if not is_linear_involution(linear):
        raise ValueError("matrix is not a linear involution within tolerance")
    if (linear - IDENTITY).max_abs() <= 1e-9:
        raise ValueError("the identity involution has no canonical foliation of this kind")
    if (linear + IDENTITY).max_abs() <= 1e-9:
        return CanonicalFoliation(RADIAL, IDENTITY)
    if linear.det >= 0.0:
        raise ValueError("linear involution is neither +-I nor orientation-reversing")
    v_plus = _kernel_direction(linear - IDENTITY)
    v_minus = _kernel_direction(linear + IDENTITY)
    s_inv = Mat2(v_plus[0], v_minus[0], v_plus[1], v_minus[1])
    s = s_inv.inverse()
    diag = s @ linear @ s_inv
    if abs(diag.a11 - 1.0) > 1e-9 or abs(diag.a22 + 1.0) > 1e-9 or \
            abs(diag.a12) > 1e-9 or abs(diag.a21) > 1e-9:
        raise ValueError("diagonalization failed to reach diag(1, -1) within tolerance")
    return CanonicalFoliation(VERTICAL, s)


def _kernel_direction(m: Mat2) -> tuple[float, float]:
    """Unit vector spanning the kernel of a rank-one 2x2 matrix.

    The sign is fixed by making the largest-magnitude component positive,
    so an already-diagonal involution gets the identity change of basis.
    """
    rows = m.rows()
    row = max(rows, key=lambda r: r[0] * r[0] + r[1] * r[1])
    norm = math.hypot(row[0], row[1])
    if norm == 0.0:
        raise ValueError("matrix has no one-dimensional kernel")
    vx, vy = row[1] / norm, -row[0] / norm
    if abs(vy) > abs(vx):
        if vy < 0.0:
            vx, vy = -vx, -vy
    elif vx < 0.0:
        vx, vy = -vx, -vy
    return (vx, vy)


Entries = tuple[float, float, float, float, float, float, float, float]


def invert_standard_map(
    h: StandardMap,
    target: tuple[float, float],
    guess: tuple[float, float],
    tol: float = 1e-10,
    max_iter: int = 50,
    guess_entries: Entries | None = None,
) -> tuple[tuple[float, float], Entries]:
    """Newton-solve h(p) = target starting from ``guess``.

    Returns the root and ``h.evaluate_with_jacobian`` there, the floats
    ``(hx, hy, h11, h12, h21, h22, u, v)`` of its convergence check.  A caller
    that holds those entries at ``guess`` passes them as ``guess_entries``,
    and the first iteration reads them instead of evaluating h.

    Raises :class:`InversionError` on a singular Jacobian, when ``h``
    cannot be evaluated at an iterate (a non-finite sample included), or
    when the iteration fails to converge, carrying the last iterate.
    """
    px, py = p = (float(guess[0]), float(guess[1]))
    tx, ty = target
    evaluate_with_jacobian = h.evaluate_with_jacobian
    hypot = math.hypot
    e = guess_entries
    for _ in range(max_iter + 1):
        if e is None:
            try:
                e = evaluate_with_jacobian(p)
            except EvaluationError as exc:
                raise InversionError(str(exc), p) from exc
        hx, hy, a11, a12, a21, a22, _, _ = e  # phi(p) last
        rx, ry = tx - hx, ty - hy
        if hypot(rx, ry) <= tol:
            return p, e
        det = a11 * a22 - a12 * a21
        # the bound is at least the singularity test's, as the sum of squares
        # is at least scale*scale: only a det within it pays for that test
        bound = 1e-14 * (a11 * a11 + a12 * a12 + a21 * a21 + a22 * a22 + 1e-30)
        if -bound <= det <= bound:
            scale = max(abs(a11), abs(a12), abs(a21), abs(a22))
            if abs(det) <= 1e-14 * max(scale * scale, 1e-30):
                raise InversionError("singular Jacobian during inversion", p)
        nx = px + (rx * a22 - a12 * ry) / det
        ny = py + (a11 * ry - a21 * rx) / det
        if (nx - nx) + (ny - ny) != 0.0:  # x - x is 0.0 exactly when x is finite
            raise InversionError("inversion iterate became non-finite", p)
        px, py = p = (nx, ny)
        e = None
    raise InversionError(f"no convergence after {max_iter} iterations", p)


EigenGrid = list[tuple[tuple[float, float], tuple[float, float]]]


def _eigen_grid(h: StandardMap, s: Mat2, region: Region) -> EigenGrid:
    """``(S h(p), p)`` at every window node, in row-major order, from one
    ``h.evaluate_grid`` call; raises where ``h.evaluate`` fails."""
    xs, ys = region.xs(), region.ys()
    us, vs, error = h.evaluate_grid(xs, ys)
    if error is not None:
        raise error
    nodes = [(x, y) for y in ys for x in xs]
    return [(s.apply((u, v)), p) for u, v, p in zip(us, vs, nodes)]


def _vertical_anchor(grid: EigenGrid, c: float) -> tuple[float, tuple[float, float]]:
    """Window node whose first eigen-coordinate is closest to the leaf's c.

    Returns the node's second eigen-coordinate (the march start) and the
    node itself (the first Newton guess); ties go to the first node."""
    best = math.inf
    best_t = 0.0
    best_p = (0.0, 0.0)
    for w, p in grid:
        gap = abs(w[0] - c)
        if gap < best:
            best = gap
            best_t = w[1]
            best_p = p
    return best_t, best_p


def trace_leaf(
    h: StandardMap,
    fol: CanonicalFoliation,
    parameter: float,
    region: Region,
    step: float = 1e-2,
    *,
    _grid: EigenGrid | None = None,
) -> Leaf:
    """Trace one leaf of the induced foliation through the window.

    Radial: the canonical leaf is the ray at angle ``parameter``; the march
    runs outward from radius 1e-3.  Vertical: the canonical leaf is the
    line {first eigen-coordinate = parameter}; the march starts from the
    window node nearest the leaf and runs both ways.  ``_grid`` is internal
    to :func:`trace_leaves`, which shares the window's eigen-coordinates
    between leaves; without it they are computed here.  The step lives in the
    target plane and is halved (up to 10 times) when an inversion fails;
    the trace stops once the preimage leaves the window, keeping the exit
    point, or is truncated at 20000 points.  Inversions take the defaults
    of :func:`invert_standard_map`.  ``invariance`` takes each point's gap
    of :func:`leaf_invariance_check` from its inversion and h(phi(q)).
    """
    h_evaluate = h.evaluate
    if fol.kind == RADIAL:
        angle = float(parameter)
        ca, sa = math.cos(angle), math.sin(angle)

        def target_at(t: float) -> tuple[float, float]:
            return (t * ca, t * sa)

        def residual_at(e: Entries) -> float:
            return _angle_gap(math.atan2(e[1], e[0]), angle)

        def invariance_at(e: Entries) -> float:
            if math.hypot(e[0], e[1]) < 1e-6:
                return 0.0
            gx, gy = h_evaluate(e[6:])
            return _angle_gap(math.atan2(gy, gx), math.atan2(-e[1], -e[0]))

        t0 = _RADIAL_START_RADIUS
        guess0 = target_at(t0)
        directions = (1.0,)
    else:
        c = float(parameter)
        s = fol.change_of_basis
        s_inv = s.inverse()
        s11, s12 = s.a11, s.a12
        # S^-1 (c, t), with the products by c taken once
        x0, y0, dx, dy = s_inv.a11 * c, s_inv.a21 * c, s_inv.a12, s_inv.a22

        def target_at(t: float) -> tuple[float, float]:
            return (x0 + dx * t, y0 + dy * t)

        def residual_at(e: Entries) -> float:
            return abs(s11 * e[0] + s12 * e[1] - c)  # the first entry of S h(p), less c

        def invariance_at(e: Entries) -> float:
            gx, gy = h_evaluate(e[6:])
            return abs((s11 * gx + s12 * gy) - (s11 * e[0] + s12 * e[1]))

        grid = _eigen_grid(h, s, region) if _grid is None else _grid
        t0, guess0 = _vertical_anchor(grid, c)
        directions = (1.0, -1.0)

    try:
        p0, e0 = invert_standard_map(h, target_at(t0), guess0)
    except InversionError:
        return Leaf(parameter, [], [], truncated=True)
    p0_inside = region.contains(p0)
    x_min, x_max, y_min, y_max = region.x_min, region.x_max, region.y_min, region.y_max
    invariance = invariance_at(e0) if p0_inside else 0.0

    truncated = False
    branches: list[tuple[list[tuple[float, float]], list[float]]] = []
    for direction in directions:
        pts: list[tuple[float, float]] = []
        residuals: list[float] = []
        t = t0
        p_prev, e_prev = p0, e0
        step_cur = step
        halvings = 0
        entered = p0_inside
        pre_steps = 0
        approach_stalls = 0
        last_gap = _window_gap(region, p0)
        while len(pts) < 20000:
            t_next = t + direction * step_cur
            try:
                p, e = invert_standard_map(h, target_at(t_next), p_prev, guess_entries=e_prev)
            except InversionError:
                halvings += 1
                if halvings > 10:
                    truncated = True
                    break
                step_cur *= 0.5
                continue
            inside = x_min <= p[0] <= x_max and y_min <= p[1] <= y_max  # region.contains(p)
            if entered or inside:
                entered = True
                pts.append(p)
                residuals.append(residual_at(e))
                invariance = max(invariance, invariance_at(e))
                if not inside:
                    break
            else:
                # anchored just outside the window: walk the leaf until it
                # enters, giving up once it stops approaching
                gap = _window_gap(region, p)
                approach_stalls = approach_stalls + 1 if gap >= last_gap else 0
                last_gap = gap
                pre_steps += 1
                if approach_stalls > 25 or pre_steps > 2000:
                    break
            t = t_next
            p_prev, e_prev = p, e
        else:
            truncated = True
        branches.append((pts, residuals))

    points, residuals = branches[0]
    if p0_inside:
        points = [p0] + points
        residuals = [residual_at(e0)] + residuals
    if fol.kind == VERTICAL:
        back_points, back_residuals = branches[1]
        points = back_points[::-1] + points
        residuals = back_residuals[::-1] + residuals
    return Leaf(parameter, points, residuals, truncated, invariance)


def trace_leaves(
    h: StandardMap,
    fol: CanonicalFoliation,
    region: Region,
    step: float = 1e-2,
    count: int | None = None,
) -> list[Leaf]:
    """Trace the default family: :func:`trace_leaf` at every parameter of
    :func:`default_leaf_parameters`, in order.

    A vertical foliation takes its parameters from the range of the first
    eigen-coordinate of h over the window, and each leaf starts from the
    window node nearest it; both read one grid of h, computed here once.
    """
    grid = None
    if fol.kind == VERTICAL:
        grid = _eigen_grid(h, fol.change_of_basis, region)
    return [trace_leaf(h, fol, c, region, step, _grid=grid)
            for c in default_leaf_parameters(fol, grid, count)]


def _window_gap(region: Region, p: tuple[float, float]) -> float:
    """Distance from a point to the window box (zero inside)."""
    dx = max(region.x_min - p[0], p[0] - region.x_max, 0.0)
    dy = max(region.y_min - p[1], p[1] - region.y_max, 0.0)
    return math.hypot(dx, dy)


def _angle_gap(a: float, b: float) -> float:
    """Absolute angular distance between two angles, in [0, pi]."""
    d = math.fmod(a - b, 2.0 * math.pi)
    if d < -math.pi:
        d += 2.0 * math.pi
    elif d > math.pi:
        d -= 2.0 * math.pi
    return abs(d)


def leaf_invariance_check(h: StandardMap, fol: CanonicalFoliation, leaf: Leaf) -> float:
    """Max residual of the invariance of the leaf under the involution.

    Vertical case: phi preserves each leaf, so the first eigen-coordinate
    of h is unchanged by composing with phi; the residual is the largest
    difference.  Radial case: h(phi(q)) is the antipode of h(q), so the
    residual is the angular distance between h(phi(q)) and -h(q),
    skipping points whose image is within 1e-6 of the origin.  The
    involution is ``h.base``; h(q) comes from phi(q) by
    :meth:`StandardMap.from_value`, so each point takes two evaluations
    of phi, at q and at phi(q).
    """
    worst = 0.0
    phi = h.base.evaluate
    from_value = h.from_value
    if fol.kind == VERTICAL:
        s = fol.change_of_basis
        s11, s12 = s.a11, s.a12
        for q in leaf.points:
            fq = phi(q)
            hx, hy = from_value(q, fq)
            gx, gy = h.evaluate(fq)
            gap = abs((s11 * gx + s12 * gy) - (s11 * hx + s12 * hy))  # first entries of S h
            if gap > worst:
                worst = gap
        return worst
    for q in leaf.points:
        fq = phi(q)
        hx, hy = from_value(q, fq)
        if math.hypot(hx, hy) < 1e-6:
            continue
        gx, gy = h.evaluate(fq)
        gap = _angle_gap(math.atan2(gy, gx), math.atan2(-hy, -hx))
        if gap > worst:
            worst = gap
    return worst


def default_leaf_parameters(
    fol: CanonicalFoliation, grid: EigenGrid | None, count: int | None = None
) -> list[float]:
    """Equispaced leaf parameters: 24 ray angles over [0, 2*pi), or 21
    vertical constants spanning the first eigen-coordinates of the window
    ``grid`` of :func:`trace_leaves` (None for a radial foliation)."""
    if fol.kind == RADIAL:
        count = 24 if count is None else count
        return [2.0 * math.pi * i / count for i in range(count)]
    count = 21 if count is None else count
    firsts = [w[0] for w, _ in grid]
    lo, hi = min(firsts), max(firsts)
    if count == 1:
        return [(lo + hi) / 2.0]
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]
