"""Involution verification, orientation, and fixed-point structure.

Everything here certifies behaviour on a bounded sampling window, never on
the whole plane: reports carry the window and all claims are grid-sampled.
For a true smooth involution the Jacobian determinant never vanishes, so a
sign change or a (near-)zero determinant on the grid indicates a bad input
map and raises :class:`DegenerateJacobianError` rather than guessing.

Fixed points are located by Newton iteration on phi(p) - p seeded in the
grid cells the fixed set can cross.  The Newton step uses a minimum-norm
least-squares solve, which keeps the iteration convergent when the fixed
set is a curve and the Jacobian of the residual is structurally singular.

Every grid phase reads one :class:`GridSample`: the value and Jacobian of
the map at each window node, taken once and kept as plain floats.

The theorems and the standard map are stated for an involution fixing the
origin.  This module owns that base point: :func:`fix_origin` moves a fixed
point to the origin by conjugating with a translation, and
:func:`linear_part` returns Dphi(0), refusing a map that does not fix the
origin.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import sub
from typing import NamedTuple

from .expr import EvaluationError, PlanarMap, recentered
from .linalg2 import IDENTITY, Mat2, power_of_two_scaled, solve_min_norm

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
    """The map does not fix the origin, so Dphi(0) is no linear part."""


class Region:
    """Axis-aligned sampling window with a uniform grid."""

    __slots__ = ("x_min", "x_max", "y_min", "y_max", "grid_n")

    def __init__(self, x_min: float, x_max: float, y_min: float, y_max: float,
                 grid_n: int = 41):
        if not all(map(math.isfinite, (x_min, x_max, y_min, y_max))):
            raise ValueError("window bounds must be finite")
        if not (x_min < x_max and y_min < y_max):
            raise ValueError("window bounds must satisfy x_min < x_max and y_min < y_max")
        if grid_n < 2:
            raise ValueError("grid_n must be at least 2")
        self.x_min = x_min
        self.x_max = x_max
        self.y_min = y_min
        self.y_max = y_max
        self.grid_n = grid_n

    def _key(self) -> tuple:
        return (self.x_min, self.x_max, self.y_min, self.y_max, self.grid_n)

    def __repr__(self) -> str:
        return ("Region(x_min={!r}, x_max={!r}, y_min={!r}, y_max={!r}, grid_n={!r})"
                .format(*self._key()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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

    def contains(self, p: tuple[float, float]) -> bool:
        return (self.x_min <= p[0] <= self.x_max
                and self.y_min <= p[1] <= self.y_max)

    def with_grid(self, grid_n: int) -> "Region":
        return Region(self.x_min, self.x_max, self.y_min, self.y_max, grid_n)


class GridSample:
    """``planar_map.evaluate_with_jacobian`` at every node of ``region``, in
    :meth:`Region.nodes` order, as flat lists of floats.

    ``px``, ``py`` hold the coordinates of every node and ``u``, ``v``,
    ``ux``, ``uy``, ``vx``, ``vy`` its value and Jacobian entries; ``u``,
    ``v`` are bit for bit :meth:`PlanarMap.evaluate` at the node.  Taking
    the sample raises the exception of the first node where
    ``evaluate_with_jacobian`` fails, so every sample is complete; every grid
    phase reads the map and the window from it.
    """

    def __init__(self, planar_map: PlanarMap, region: Region):
        self.planar_map = planar_map
        self.region = region
        xs, ys = region.xs(), region.ys()
        self.px = xs * len(ys)
        self.py = [y for y in ys for _ in xs]
        rows = list(map(planar_map.evaluate_with_jacobian, zip(self.px, self.py)))
        self.u, self.v, self.ux, self.uy, self.vx, self.vy = map(list, zip(*rows))


class InvolutionCheck(NamedTuple):
    max_residual: float
    passed: bool
    worst_point: tuple[float, float]


class OrientationClass(NamedTuple):
    kind: str  # ORIENTATION_PRESERVING or ORIENTATION_REVERSING
    min_abs_det: float


class FixedPoint(NamedTuple):
    location: tuple[float, float]
    classification: str
    jacobian: Mat2


class FixedPointScan(NamedTuple):
    """The fixed points found in the window, plus scan diagnostics.

    ``kind`` is the fixed set of an involution with linear part Dphi(0): a
    ``"curve"``, whose roots are labelled :data:`CURVE`, when Dphi(0)
    reverses orientation, ``"all"`` when it is I and else a ``"point"``.
    """

    points: list[FixedPoint]
    kind: str
    seeds_converged: int
    seeds_skipped: int


def verify_involution(sample: GridSample, tol: float = 1e-9) -> InvolutionCheck:
    """Grid-certify phi(phi(p)) == p with the normalized residual
    ||phi(phi(p)) - p|| / (1 + ||p||).

    phi(p) comes from the grid sample, and phi(phi(p)) from one
    ``evaluate`` call per node.  Where a norm overflows, the residual is
    taken on ``phi(phi(p))``, ``p`` and 1 scaled by the power of two of
    :func:`power_of_two_scaled`; a NaN residual counts as inf.
    """
    evaluate = sample.planar_map.evaluate
    worst = 0.0
    worst_point = (sample.region.x_min, sample.region.y_min)
    for x, y, fx, fy in zip(sample.px, sample.py, sample.u, sample.v):
        rx, ry = evaluate((fx, fy))
        num, den = math.hypot(rx - x, ry - y), 1.0 + math.hypot(x, y)
        if num == math.inf or den == math.inf:  # take it on scaled values
            k, rx, ry, sx, sy = power_of_two_scaled(rx, ry, x, y)
            num, den = math.hypot(rx - sx, ry - sy), k + math.hypot(sx, sy)
        res = num / den
        if not res <= worst:
            worst = res if res == res else math.inf
            worst_point = (x, y)
    return InvolutionCheck(worst, worst <= tol, worst_point)


def orientation(sample: GridSample) -> OrientationClass:
    """Classify det(Dphi) sign over the grid; mixed or vanishing signs raise.

    A determinant ``a11*a22 - a12*a21`` vanishes when it is within
    ``1e-12 * (|a11*a22| + |a12*a21|)`` of zero, the size of the rounding
    error of its two products, so the test depends neither on the units of
    the map nor on one large entry whose product does not cancel.  Where a
    product overflows, the test and the sign are those of the entries scaled
    by a power of two ``k`` (:func:`power_of_two_scaled`), and ``|det|`` is
    the scaled one over ``k^2``.
    """
    sign = 0
    min_abs = math.inf
    for x, y, a11, a12, a21, a22 in zip(sample.px, sample.py, sample.ux, sample.uy,
                                         sample.vx, sample.vy):
        d = a11 * a22 - a12 * a21
        size = abs(a11 * a22) + abs(a12 * a21)
        k = 1.0
        if size == math.inf:  # a product overflowed: decide on scaled entries
            k, b11, b12, b21, b22 = power_of_two_scaled(a11, a12, a21, a22)
            d, size = b11 * b22 - b12 * b21, abs(b11 * b22) + abs(b12 * b21)
        if abs(d) <= 1e-12 * size:
            raise DegenerateJacobianError("Jacobian determinant vanishes", (x, y))
        s = 1 if d > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            raise DegenerateJacobianError("Jacobian determinant changes sign", (x, y))
        min_abs = min(min_abs, abs(d) / k / k)
    kind = ORIENTATION_PRESERVING if sign > 0 else ORIENTATION_REVERSING
    return OrientationClass(kind, min_abs)


def classify_fixed_point(jac: Mat2) -> str:
    """Classify a fixed point by the +/-I test on its Jacobian, to 1e-6.

    The test only applies where the map preserves orientation; where the
    Jacobian determinant is not positive the result is UNCLASSIFIED.
    """
    if jac.det <= 0.0:
        return UNCLASSIFIED
    if (jac - IDENTITY).max_abs() <= 1e-6:
        return FIX_PLUS
    if (jac + IDENTITY).max_abs() <= 1e-6:
        return FIX_MINUS
    return UNCLASSIFIED


def polish_fixed_point(
    planar_map: PlanarMap,
    seed: tuple[float, float],
    tol: float = 1e-9,
    max_iter: int = 60,
    *,
    _first: tuple[float, ...] | None = None,
) -> tuple[float, float] | None:
    """Newton-polish a fixed-point seed; None if the iteration fails.

    Runs on the plain floats of ``planar_map.evaluate_with_jacobian``; the
    step solves ``(Dphi(p) - I) delta = p - phi(p)`` with
    :func:`solve_min_norm`.  ``_first`` is internal to
    :func:`find_fixed_points`: the seed's entries, from its grid sample.
    """
    px, py = float(seed[0]), float(seed[1])
    evaluate_with_jacobian = planar_map.evaluate_with_jacobian
    entries = _first
    for _ in range(max_iter + 1):
        try:
            fx, fy, j11, j12, j21, j22 = entries or evaluate_with_jacobian((px, py))
        except EvaluationError:
            return None  # iterate escaped the map's numeric range
        entries = None
        rx, ry = fx - px, fy - py
        if math.hypot(rx, ry) <= tol:
            return (px, py)
        sx, sy = solve_min_norm(j11 - 1.0, j12 - 0.0, j21 - 0.0, j22 - 1.0, -rx, -ry)
        nx, ny = px + sx, py + sy
        if not (math.isfinite(nx) and math.isfinite(ny)):
            return None
        if sx == 0.0 and sy == 0.0:
            return None  # stalled on a zero step with residual remaining
        px, py = nx, ny
    return None


def find_fixed_points(sample: GridSample, newton_tol: float = 1e-9) -> FixedPointScan:
    """Locate the fixed points in the window, seeding Newton where they can be.

    A fixed point zeroes ``z(p) = (I - A)(phi(p) - p)``, ``A = Dphi(0)``.
    Newton is seeded once at every corner of each grid cell over whose
    corners both components of ``z`` take both signs, zero included (every
    node where ``A = I``), in node order; its first iteration reads the
    grid sample.  Roots outside the window are dropped, and roots closer
    than 1e-6 times the window diameter are merged: known roots are
    bucketed into square cells whose side is that merge radius, so only the
    3x3 cell neighbourhood of a new root is searched.
    """
    planar_map, region, n = sample.planar_map, sample.region, sample.region.grid_n
    a = linear_part(planar_map)
    kind = CURVE if a.det < 0.0 else "all" if (a - IDENTITY).max_abs() <= 1e-9 else "point"
    # bits 1, 2: z1 > 0, z1 < 0; 4, 8: z2 > 0, z2 < 0; flag cells whose corners share none
    zs = map((IDENTITY - a).apply,
             zip(map(sub, sample.u, sample.px), map(sub, sample.v, sample.py)))
    codes = [(z1 > 0.0) | (z1 < 0.0) << 1 | (z2 > 0.0) << 2 | (z2 < 0.0) << 3 for z1, z2 in zs]
    seeded = [False] * len(codes)
    for j in range(len(codes) - n - 1):
        if j % n != n - 1 and not codes[j] & codes[j + 1] & codes[j + n] & codes[j + n + 1]:
            seeded[j] = seeded[j + 1] = seeded[j + n] = seeded[j + n + 1] = True
    merge_radius = 1e-6 * region.diameter
    buckets: dict[tuple[int, int], list[tuple[float, float]]] = {}
    points = []
    converged = 0
    firsts = zip(sample.u, sample.v, sample.ux, sample.uy, sample.vx, sample.vy)
    for seed, first in compress(zip(zip(sample.px, sample.py), firsts), seeded):
        root = polish_fixed_point(planar_map, seed, newton_tol, _first=first)
        if root is None:
            continue
        converged += 1
        ci = math.floor(root[0] / merge_radius)
        cj = math.floor(root[1] / merge_radius)
        if region.contains(root) and not any(
            math.hypot(root[0] - kx, root[1] - ky) <= merge_radius
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            for kx, ky in buckets.get((ci + di, cj + dj), ())
        ):
            buckets.setdefault((ci, cj), []).append(root)
            jac = Mat2(*planar_map.evaluate_with_jacobian(root)[2:])
            cls = CURVE if kind == CURVE else classify_fixed_point(jac)
            points.append(FixedPoint(root, cls, jac))
    return FixedPointScan(points, kind, converged, sum(seeded) - converged)


def linear_part(planar_map: PlanarMap) -> Mat2:
    """Dphi(0), the linear part that both theorems and ``h`` are built on.

    Raises :class:`BasePointError` unless the map fixes the origin, that is
    ``|phi(0)| <= 1e-9``; :func:`fix_origin` recenters a map that does not.
    """
    u, v, a11, a12, a21, a22 = planar_map.evaluate_with_jacobian((0.0, 0.0))
    drift = math.hypot(u, v)
    if drift > 1e-9:
        raise BasePointError(
            f"the linear part needs the origin fixed, but |phi(0)| = {drift:.3e}; "
            "recenter the map at a fixed point first"
        )
    return Mat2(a11, a12, a21, a22)


def fix_origin(planar_map: PlanarMap) -> tuple[PlanarMap, tuple[float, float] | None]:
    """The map conjugated so that it fixes the origin, and the offset.

    A map that fixes the origin is returned as it is, with offset None.
    Otherwise it is recentered at the root that :func:`polish_fixed_point`
    reaches from the origin, and that root is the offset; the recentered
    trees share subtrees where the given ones do.  If Newton reaches no
    root, the map is returned as it is, with None, and the later phases
    report what is wrong with it.
    """
    try:
        linear_part(planar_map)
    except BasePointError:
        root = polish_fixed_point(planar_map, (0.0, 0.0))
        if root is not None:
            return recentered(planar_map, root), root
    except EvaluationError:
        pass  # Newton from the origin fails on the same error
    return planar_map, None
