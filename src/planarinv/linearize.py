"""The standard map h = (I + Dphi(0) phi)/2 and its certificates.

``h`` conjugates an involution fixing the origin to its linear part there:
h(phi(p)) = Dphi(0) h(p) holds identically whenever phi is an involution.
Dphi(0) comes from :func:`planarinv.involution.linear_part`, which refuses
a map that does not fix the origin; recenter such a map first with
:func:`planarinv.involution.fix_origin`.
Global linearization additionally needs h injective, which the spectral
conditions guarantee; the scan here is the empirical counterpart.  It is a
falsification instrument: a reported collision is decisive, while
"no collision found" only certifies the scanned grid.

The auxiliary map g = Dphi(0) + phi satisfies h = Dphi(0) g / 2 and, for
orientation-preserving involutions with linear part -I, the shifted
spectrum identity Spc(Dg(p)) = Spc(Dphi(p)) - 1, which
:func:`spectrum_shift_check` verifies numerically.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat

from .expr import PlanarMap
from .involution import GridSample, Region, default_region, linear_part
from .linalg2 import MINUS_IDENTITY, Mat2, eigen_entries, set_distance_entries

NO_COLLISION_FOUND = "NoCollisionFound"
COLLISION = "Collision"


class NotApplicableError(ValueError):
    """An operation's structural precondition does not hold for this map."""


@dataclass(frozen=True)
class StandardMap:
    """Derived map h(p) = (p + Dphi(0) phi(p)) / 2 with its linear part.

    ``jacobian_entries`` computes Dh(p) = (I + Dphi(0) Dphi(p)) / 2 from
    the base map's propagated Jacobian; :meth:`as_planar_map` instead
    routes derivative propagation through the composed expression, giving
    an independent second route for cross-checks.
    """

    base: PlanarMap
    linear_part: Mat2  # Dphi(0)

    def evaluate(self, p: tuple[float, float]) -> tuple[float, float]:
        fx, fy = self.base.evaluate(p)
        a = self.linear_part
        return (0.5 * (p[0] + (a.a11 * fx + a.a12 * fy)),
                0.5 * (p[1] + (a.a21 * fx + a.a22 * fy)))

    def evaluate_grid(
        self, xs: list[float], ys: list[float]
    ) -> tuple[list[float], list[float], Exception | None]:
        """h at the nodes ``(x, y)``, ``y`` outer and ``x`` inner, in one call.

        Returns ``(us, vs, error)``: the components of h at every node
        before the first node where :meth:`evaluate` fails, bit for bit
        those of :meth:`evaluate`, and the exception that :meth:`evaluate`
        raises at that node (None if there is none).
        """
        a = self.linear_part
        us: list[float] = []
        vs: list[float] = []
        try:
            self.base.grid_kernel()(xs, ys, a.a11, a.a12, a.a21, a.a22, us, vs)
        except Exception:
            pass  # the node is evaluated again below, for evaluate's exception
        j = len(us)
        if j == len(xs) * len(ys):
            return us, vs, None
        n = len(xs)
        try:
            self.evaluate((xs[j % n], ys[j // n]))
        except Exception as exc:
            return us, vs, exc
        raise RuntimeError(f"the grid kernel stopped at node {j}, where evaluate succeeds")

    def jacobian_entries(self, p: tuple[float, float]) -> tuple[float, ...]:
        """h(p) and Dh(p) as the floats ``(hx, hy, h11, h12, h21, h22)``.

        Each entry takes the operations of ``(I + Dphi(0) Dphi(p)).scale(0.5)``
        in :class:`Mat2` arithmetic, in the same order (``0.0 +`` included,
        which turns a -0.0 into 0.0), so the floats are those of
        :meth:`evaluate_with_jacobian`.
        """
        u, v, ux, uy, vx, vy = self.base.jacobian_entries(p)
        a = self.linear_part
        a11, a12, a21, a22 = a.a11, a.a12, a.a21, a.a22
        return (
            0.5 * (p[0] + (a11 * u + a12 * v)),
            0.5 * (p[1] + (a21 * u + a22 * v)),
            0.5 * (1.0 + (a11 * ux + a12 * vx)),
            0.5 * (0.0 + (a11 * uy + a12 * vy)),
            0.5 * (0.0 + (a21 * ux + a22 * vx)),
            0.5 * (1.0 + (a21 * uy + a22 * vy)),
        )

    def evaluate_with_jacobian(
        self, p: tuple[float, float]
    ) -> tuple[tuple[float, float], Mat2]:
        hx, hy, h11, h12, h21, h22 = self.jacobian_entries(p)
        return (hx, hy), Mat2(h11, h12, h21, h22)

    def auxiliary(self, p: tuple[float, float]) -> tuple[float, float]:
        """g(p) = Dphi(0) p + phi(p)."""
        fx, fy = self.base.evaluate(p)
        ax, ay = self.linear_part.apply(p)
        return (ax + fx, ay + fy)

    def as_planar_map(self) -> PlanarMap:
        a = self.linear_part

        def fn(x, y):
            u, v = self.base.components(x, y)
            return (
                (x + a.a11 * u + a.a12 * v) * 0.5,
                (y + a.a21 * u + a.a22 * v) * 0.5,
            )

        return PlanarMap.from_function(fn, f"standard({self.base.source})")


@dataclass(frozen=True)
class InjectivityCertificate:
    status: str  # NO_COLLISION_FOUND or COLLISION
    witness_pair: tuple[tuple[float, float], tuple[float, float]] | None
    cells_checked: int


def standard_map(planar_map: PlanarMap) -> StandardMap:
    """Build h for a map fixing the origin, with :func:`linear_part`."""
    return StandardMap(planar_map, linear_part(planar_map))


def conjugacy_residual(h: StandardMap, p: tuple[float, float]) -> float:
    """||h(phi(p)) - Dphi(0) h(p)|| / (1 + ||p||); zero for true involutions."""
    fp = h.base.evaluate(p)
    left = h.evaluate(fp)
    right = h.linear_part.apply(h.evaluate(p))
    return math.hypot(left[0] - right[0], left[1] - right[1]) / (1.0 + math.hypot(p[0], p[1]))


def injectivity_scan(
    h,
    region: Region | None = None,
    scan_n: int = 201,
    collision_tol: float = 1e-6,
    separation_min: float | None = None,
) -> InjectivityCertificate:
    """Search a scan_n x scan_n grid for two well-separated points with
    (almost) the same image.

    Images are bucketed into square cells of side ``collision_tol`` and
    only points in touching cells are compared, so no pair within the
    tolerance can be missed.  A pair counts as a collision when the images
    are within ``collision_tol`` but the sources are at least
    ``separation_min`` apart (default: 1e-3 of the window diameter), which
    screens out adjacent grid points with nearby images.  The first
    qualifying pair in scan order is reported, with the number of distinct
    cells before its later point; otherwise the whole grid's count.

    ``h`` may be any object with an ``evaluate((x, y))`` method.  If it
    also has ``evaluate_grid(xs, ys)`` (as :class:`StandardMap` does), that
    is called once with the scan's x and y coordinates and must return
    ``(us, vs, error)``: the image components of the nodes in row-major
    order (``y`` outer, ``x`` inner) up to the first node where ``evaluate``
    raises, and that exception, or None.  Otherwise ``evaluate`` is called
    once per node, in row-major order, until a call raises.  The exception
    (or one from computing a node's cell) is raised only if no collision
    precedes the node.  Node ``j`` is ``(xs[j % scan_n], ys[j // scan_n])``;
    the points are built only where they are compared or reported.

    Which cells touch is decided for the whole grid at once: each cell
    ``(ci, cj)`` is packed into the int ``ci*w + cj - min_cj`` with
    ``w = max_cj - min_cj + 3``, so the eight neighbours of a cell are at
    the fixed offsets ``±1, ±(w-1), ±w, ±(w+1)`` and ``cj ± 1`` never
    reaches another row.  Set intersections find the points that share or
    touch a cell with another point ("crowded" points); the others cannot
    collide, and only the crowded ones are compared pairwise.
    """
    region = region or default_region()
    if scan_n < 2:
        raise ValueError("scan_n must be at least 2")
    if separation_min is None:
        separation_min = 1e-3 * region.diameter
    cell = collision_tol
    scan = region.with_grid(scan_n)
    xs, ys = scan.xs(), scan.ys()
    evaluate_grid = getattr(h, "evaluate_grid", None)
    if evaluate_grid is not None:
        us, vs, error = evaluate_grid(xs, ys)
    else:
        us, vs, error = _evaluate_nodes(h, xs, ys)
    try:
        cis = list(map(math.floor, map(operator.truediv, us, repeat(cell))))
        cjs = list(map(math.floor, map(operator.truediv, vs, repeat(cell))))
    except Exception:
        # node by node: the first node whose cell cannot be computed ends the scan
        cis, cjs = [], []
        for u, v in zip(us, vs):
            try:
                ci = math.floor(u / cell)
                cj = math.floor(v / cell)
            except Exception as exc:
                error = exc
                break
            cis.append(ci)
            cjs.append(cj)
    if not cis:
        raise error
    min_cj = min(cjs)
    w = max(cjs) - min_cj + 3
    keys = list(map(operator.add, map(operator.mul, cis, repeat(w)),
                    map(operator.sub, cjs, repeat(min_cj))))
    cells = set(keys)
    crowded: set[int] = set()
    if len(cells) < len(keys):
        crowded.update(k for k, c in Counter(keys).items() if c > 1)
    for d in (1, w - 1, w, w + 1):
        upper = cells.intersection(map(operator.add, cells, repeat(d)))
        crowded |= upper
        crowded.update(map(operator.sub, upper, repeat(d)))
    offsets = (-w - 1, -w, -w + 1, -1, 0, 1, w - 1, w, w + 1)
    buckets: dict[int, list[int]] = {}
    for j in compress(range(len(keys)), map(crowded.__contains__, keys)):
        px, py = xs[j % scan_n], ys[j // scan_n]
        u, v = us[j], vs[j]
        key = keys[j]
        best = None
        for d in offsets:
            for idx in buckets.get(key + d, ()):
                if math.hypot(u - us[idx], v - vs[idx]) > collision_tol:
                    continue
                if math.hypot(px - xs[idx % scan_n], py - ys[idx // scan_n]) < separation_min:
                    continue
                if best is None or idx < best:
                    best = idx
        if best is not None:
            witness = ((xs[best % scan_n], ys[best // scan_n]), (px, py))
            return InjectivityCertificate(COLLISION, witness, len(set(keys[:j])))
        buckets.setdefault(key, []).append(j)
    if error is not None:
        raise error
    return InjectivityCertificate(NO_COLLISION_FOUND, None, len(cells))


def _evaluate_nodes(h, xs: list[float], ys: list[float]) -> tuple[list, list, Exception | None]:
    """``evaluate_grid``'s triple from one ``h.evaluate`` call per node."""
    images = []
    error: Exception | None = None
    evaluate = h.evaluate
    try:
        for y in ys:
            for x in xs:
                images.append(evaluate((x, y)))
    except Exception as exc:
        error = exc
    return [u for u, _ in images], [v for _, v in images], error


def spectrum_shift_check(sample: GridSample) -> float:
    """Max deviation over the grid between Spc(Dg(p)) and Spc(Dphi(p)) - 1.

    Applies to orientation-preserving involutions fixing the origin with
    Dphi(0) = -I (from :func:`linear_part`); both eigenvalue sets are
    compared as unordered pairs.  The Jacobians are those of the grid
    sample; each node takes the float operations of
    ``set_distance(eigenvalues(linear_part + jac), eigenvalues(jac).shifted(-1.0))``.
    """
    lin = linear_part(sample.planar_map)
    if (lin - MINUS_IDENTITY).max_abs() > 1e-9:
        raise NotApplicableError(
            "the spectrum shift identity needs Dphi(0) = -I; "
            f"got linear part {lin.rows()}"
        )
    l11, l12, l21, l22 = lin.a11, lin.a12, lin.a21, lin.a22
    worst = 0.0
    for a11, a12, a21, a22 in zip(sample.ux, sample.uy, sample.vx, sample.vy):
        g1r, g1i, g2r, g2i = eigen_entries(l11 + a11, l12 + a12, l21 + a21, l22 + a22)
        s1r, s1i, s2r, s2i = eigen_entries(a11, a12, a21, a22)
        distance = set_distance_entries(g1r, g1i, g2r, g2i,
                                        s1r - 1.0, s1i + 0.0, s2r - 1.0, s2i + 0.0)
        worst = max(worst, distance)
    return worst


@dataclass(frozen=True)
class JacobianBounds:
    min_trace: float
    min_det: float


def theorem_B_jacobian_check(sample: GridSample) -> JacobianBounds:
    """Minimum trace and determinant of Dh over the grid.

    Under the verified trace condition of an orientation-reversing base
    involution both minima are positive (the trace stays above 1/2), which
    is what forces Spc(h) away from (-inf, 0].  Dh at each node takes the
    operations of :meth:`StandardMap.jacobian_entries` on the sample's
    Jacobian, with Dphi(0) from :func:`linear_part`.
    """
    lin = linear_part(sample.planar_map)
    l11, l12, l21, l22 = lin.a11, lin.a12, lin.a21, lin.a22
    min_trace = math.inf
    min_det = math.inf
    for a11, a12, a21, a22 in zip(sample.ux, sample.uy, sample.vx, sample.vy):
        h11 = 0.5 * (1.0 + (l11 * a11 + l12 * a21))
        h12 = 0.5 * (0.0 + (l11 * a12 + l12 * a22))
        h21 = 0.5 * (0.0 + (l21 * a11 + l22 * a21))
        h22 = 0.5 * (1.0 + (l21 * a12 + l22 * a22))
        min_trace = min(min_trace, h11 + h22)
        min_det = min(min_det, h11 * h22 - h12 * h21)
    return JacobianBounds(min_trace, min_det)
