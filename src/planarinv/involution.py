"""Involution verification, orientation, and fixed-point structure.

Everything here certifies behaviour on a bounded sampling window, never on
the whole plane: reports carry the window and all claims are grid-sampled.
For a true smooth involution the Jacobian determinant never vanishes, so a
sign change or a (near-)zero determinant on the grid indicates a bad input
map and raises :class:`DegenerateJacobianError` rather than guessing.

Fixed points are located by Newton iteration on phi(p) - p seeded from
every grid node.  The Newton step uses a minimum-norm least-squares solve,
which keeps the iteration convergent when the fixed set is a curve and the
Jacobian of the residual is structurally singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import EvaluationError, PlanarMap
from .linalg2 import IDENTITY, Mat2, solve_min_norm_entries

ORIENTATION_PRESERVING = "preserving"
ORIENTATION_REVERSING = "reversing"

FIX_PLUS = "fix-plus"
FIX_MINUS = "fix-minus"
CURVE = "curve"
UNCLASSIFIED = "unclassified"


class DegenerateJacobianError(ValueError):
    """Jacobian determinant vanished or changed sign across the window."""

    def __init__(self, message: str, point: tuple[float, float]):
        super().__init__(f"{message} at ({point[0]!r}, {point[1]!r})")
        self.point = point


class BasePointError(ValueError):
    """No usable fixed base point; recenter the map so the origin is fixed."""


@dataclass(frozen=True)
class Region:
    """Axis-aligned sampling window with a uniform grid."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    grid_n: int = 41

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("window bounds must satisfy x_min < x_max and y_min < y_max")
        if self.grid_n < 2:
            raise ValueError("grid_n must be at least 2")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    def xs(self) -> list[float]:
        n = self.grid_n
        return [self.x_min + i * self.width / (n - 1) for i in range(n)]

    def ys(self) -> list[float]:
        n = self.grid_n
        return [self.y_min + i * self.height / (n - 1) for i in range(n)]

    def nodes(self):
        """Grid nodes in deterministic row-major order (y outer, x inner)."""
        xs = self.xs()
        for y in self.ys():
            for x in xs:
                yield (x, y)

    def contains(self, p: tuple[float, float], pad: float = 0.0) -> bool:
        return (self.x_min - pad <= p[0] <= self.x_max + pad
                and self.y_min - pad <= p[1] <= self.y_max + pad)

    def with_grid(self, grid_n: int) -> "Region":
        return Region(self.x_min, self.x_max, self.y_min, self.y_max, grid_n)


def default_region() -> Region:
    return Region(-5.0, 5.0, -5.0, 5.0, 41)


@dataclass(frozen=True)
class InvolutionCheck:
    max_residual: float
    passed: bool
    worst_point: tuple[float, float]


@dataclass(frozen=True)
class OrientationClass:
    kind: str  # ORIENTATION_PRESERVING or ORIENTATION_REVERSING
    min_abs_det: float


@dataclass(frozen=True)
class FixedPoint:
    location: tuple[float, float]
    classification: str
    jacobian: Mat2


@dataclass(frozen=True)
class FixedPointScan:
    """Deduplicated fixed points plus scan diagnostics.

    ``curve`` is set when the number of distinct roots is large enough to
    indicate a one-dimensional fixed set rather than isolated points; in
    that case roots that the pointwise test left unclassified are relabeled
    :data:`CURVE`.
    """

    points: list[FixedPoint]
    curve: bool
    seeds_converged: int
    seeds_skipped: int


def verify_involution(
    planar_map: PlanarMap, region: Region | None = None, tol: float = 1e-9
) -> InvolutionCheck:
    """Grid-certify phi(phi(p)) == p with the normalized residual
    ||phi(phi(p)) - p|| / (1 + ||p||)."""
    region = region or default_region()
    worst = 0.0
    worst_point = (region.x_min, region.y_min)
    for p in region.nodes():
        q = planar_map.evaluate(p)
        r = planar_map.evaluate(q)
        res = math.hypot(r[0] - p[0], r[1] - p[1]) / (1.0 + math.hypot(p[0], p[1]))
        if res > worst:
            worst = res
            worst_point = p
    return InvolutionCheck(worst, worst <= tol, worst_point)


def orientation(planar_map: PlanarMap, region: Region | None = None) -> OrientationClass:
    """Classify det(Dphi) sign over the grid; mixed or vanishing signs raise.

    A determinant ``a11*a22 - a12*a21`` vanishes when it is within
    ``1e-12 * (|a11*a22| + |a12*a21|)`` of zero, the size of the rounding
    error of its two products, so the test depends neither on the units of
    the map nor on one large entry whose product does not cancel.
    """
    region = region or default_region()
    sign = 0
    min_abs = math.inf
    for p in region.nodes():
        _, jac = planar_map.evaluate_with_jacobian(p)
        d = jac.det
        if abs(d) <= 1e-12 * (abs(jac.a11 * jac.a22) + abs(jac.a12 * jac.a21)):
            raise DegenerateJacobianError("Jacobian determinant vanishes", p)
        s = 1 if d > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            raise DegenerateJacobianError("Jacobian determinant changes sign", p)
        min_abs = min(min_abs, abs(d))
    kind = ORIENTATION_PRESERVING if sign > 0 else ORIENTATION_REVERSING
    return OrientationClass(kind, min_abs)


def classify_fixed_point(
    planar_map: PlanarMap, p: tuple[float, float], class_tol: float = 1e-6
) -> str:
    """Classify a fixed point by the +/-I test on its Jacobian.

    The test only applies where the map preserves orientation; at a point
    with negative Jacobian determinant the result is UNCLASSIFIED.
    """
    _, jac = planar_map.evaluate_with_jacobian(p)
    return _classify_jacobian(jac, class_tol)


def _classify_jacobian(jac: Mat2, class_tol: float) -> str:
    if jac.det <= 0.0:
        return UNCLASSIFIED
    if (jac - IDENTITY).max_abs() <= class_tol:
        return FIX_PLUS
    if (jac + IDENTITY).max_abs() <= class_tol:
        return FIX_MINUS
    return UNCLASSIFIED


def polish_fixed_point(
    planar_map: PlanarMap,
    seed: tuple[float, float],
    tol: float = 1e-9,
    max_iter: int = 60,
) -> tuple[float, float] | None:
    """Newton-polish a fixed-point seed; None if the iteration fails.

    Runs on the plain floats of ``planar_map.jacobian_entries``; the step
    solves ``(Dphi(p) - I) delta = p - phi(p)`` with the operations of
    ``solve_min_norm(jac - IDENTITY, (-rx, -ry))``.
    """
    px, py = float(seed[0]), float(seed[1])
    jacobian_entries = planar_map.jacobian_entries
    for _ in range(max_iter + 1):
        try:
            fx, fy, j11, j12, j21, j22 = jacobian_entries((px, py))
        except EvaluationError:
            return None  # iterate escaped the map's numeric range
        rx, ry = fx - px, fy - py
        if math.hypot(rx, ry) <= tol:
            return (px, py)
        sx, sy = solve_min_norm_entries(j11 - 1.0, j12 - 0.0, j21 - 0.0, j22 - 1.0, -rx, -ry)
        nx, ny = px + sx, py + sy
        if not (math.isfinite(nx) and math.isfinite(ny)) or math.hypot(nx, ny) > 1e9:
            return None
        if sx == 0.0 and sy == 0.0:
            return None  # stalled on a zero step with residual remaining
        px, py = nx, ny
    return None


def find_fixed_points(
    planar_map: PlanarMap,
    region: Region | None = None,
    newton_tol: float = 1e-9,
    max_iter: int = 60,
    class_tol: float = 1e-6,
) -> FixedPointScan:
    """Locate fixed points from every grid seed and deduplicate the roots.

    Roots closer than 1e-6 times the window diameter are merged; known
    roots are bucketed into square cells whose side is that merge radius,
    so only the 3x3 cell neighbourhood of a new root is searched.  When the
    number of distinct roots exceeds 5% of the per-axis grid resolution the
    fixed set is flagged as a curve: isolated fixed points of involutions
    come at most one per window, while one-dimensional fixed sets shed at
    least a root per grid line.
    """
    region = region or default_region()
    merge_radius = 1e-6 * region.diameter
    roots: list[tuple[float, float]] = []
    buckets: dict[tuple[int, int], list[tuple[float, float]]] = {}
    converged = 0
    skipped = 0
    for seed in region.nodes():
        root = polish_fixed_point(planar_map, seed, newton_tol, max_iter)
        if root is None:
            skipped += 1
            continue
        converged += 1
        ci = math.floor(root[0] / merge_radius)
        cj = math.floor(root[1] / merge_radius)
        if not any(
            math.hypot(root[0] - kx, root[1] - ky) <= merge_radius
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            for kx, ky in buckets.get((ci + di, cj + dj), ())
        ):
            roots.append(root)
            buckets.setdefault((ci, cj), []).append(root)
    curve = len(roots) > 0.05 * region.grid_n
    points = []
    for root in roots:
        _, jac = planar_map.evaluate_with_jacobian(root)
        cls = _classify_jacobian(jac, class_tol)
        if curve and cls == UNCLASSIFIED:
            cls = CURVE
        points.append(FixedPoint(root, cls, jac))
    return FixedPointScan(points, curve, converged, skipped)


def base_fixed_point(
    planar_map: PlanarMap, tol: float = 1e-9, max_iter: int = 60
) -> tuple[float, float]:
    """Base point at which the linear part is taken: the origin if fixed,
    otherwise a FixMinus point reached from the origin."""
    v0 = planar_map.evaluate((0.0, 0.0))
    if math.hypot(v0[0], v0[1]) <= tol:
        return (0.0, 0.0)
    root = polish_fixed_point(planar_map, (0.0, 0.0), tol, max_iter)
    if root is not None and classify_fixed_point(planar_map, root) == FIX_MINUS:
        return root
    raise BasePointError(
        "the origin is not fixed and no FixMinus point was found near it; "
        "recenter the map so that the origin is a fixed point"
    )
