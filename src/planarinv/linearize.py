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
:func:`spectrum_shift_check` verifies numerically on the characteristic
polynomials.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress, islice, repeat

from .expr import PlanarMap
from .involution import GridSample, Region, default_region, linear_part
from .linalg2 import MINUS_IDENTITY, Mat2

NO_COLLISION_FOUND = "NoCollisionFound"
COLLISION = "Collision"

# The slope of the projection that :func:`injectivity_scan` sorts: the
# golden-ratio conjugate, the irrational worst approximated by rationals, so
# the images of a grid under a near-linear h seldom project close together;
# and the scan's rounding slacks, relative and in subnormal units.
ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
_SLACK = 2.0**-40
_UNDERFLOW = 16 * 2.0**-1074


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

    Images are bucketed into square cells of side ``collision_tol`` (the
    cell of ``(u, v)`` is ``(floor(u/cell), floor(v/cell))``) and only
    points in touching cells are compared, so no pair within the tolerance
    can be missed.  A pair counts as a collision when the images are within
    ``collision_tol`` but the sources are at least ``separation_min`` apart
    (default: 1e-3 of the window diameter), which screens out adjacent grid
    points with nearby images.  The first qualifying pair in scan order is
    reported, with the number of distinct cells before its later point;
    otherwise the whole grid's count.  ``collision_tol`` must be a finite
    number > 0 and ``separation_min`` None or a finite number >= 0.

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

    Only "crowded" nodes, whose cell is shared with or touches another
    node's cell, can collide.  A node is a candidate when its projection
    ``u + ALPHA*v`` is within ``delta`` of a neighbour's in sorted order.
    Images in touching cells differ by less than ``2*cell`` per coordinate,
    so their projections, and any sorted between them, by less than
    ``2*cell*(1 + ALPHA)``.  ``delta`` adds ``_SLACK*(1 + ALPHA)*(M + cell)
    + _UNDERFLOW`` with ``M = max(|u|, |v|)``, far above the rounding of
    ``u/cell`` and of the projections (``4 * 2^-52 * (1 + ALPHA) * M``), so
    every crowded node is a candidate.  Only candidates get cells and are
    compared pairwise, in node order, which keeps the witness.  A
    non-candidate's cell is its own and candidates share cells only with
    candidates, so the first ``j`` nodes hold ``j - c + k`` distinct cells
    when ``c`` of them are candidates in ``k`` cells.  When a projection or
    ``M/cell`` is not finite, cells are computed node by node up to the
    first that fails, and every node before it is a candidate.
    """
    region = region or default_region()
    if scan_n < 2:
        raise ValueError("scan_n must be at least 2")
    if not 0.0 < collision_tol < math.inf:
        raise ValueError(f"collision_tol must be a finite number > 0, got {collision_tol!r}")
    if separation_min is None:
        separation_min = 1e-3 * region.diameter
    elif not 0.0 <= separation_min < math.inf:
        raise ValueError(f"separation_min must be a finite number >= 0, got {separation_min!r}")
    cell = collision_tol
    scan = region.with_grid(scan_n)
    xs, ys = scan.xs(), scan.ys()
    evaluate_grid = getattr(h, "evaluate_grid", None)
    if evaluate_grid is not None:
        us, vs, error = evaluate_grid(xs, ys)
    else:
        us, vs, error = _evaluate_nodes(h, xs, ys)
    if not us:
        raise error
    n = len(us)
    proj = list(map(operator.add, us, map(operator.mul, vs, repeat(ALPHA))))
    bound = max(max(us), -min(us), max(vs), -min(vs))  # M, once no image is NaN
    if math.isfinite(sum(proj)) and bound / cell < math.inf:
        s = sorted(proj)
        delta = (1.0 + ALPHA) * ((2.0 + _SLACK) * cell + _SLACK * bound) + _UNDERFLOW
        close = list(map(operator.le, map(operator.sub, islice(s, 1, None), s), repeat(delta)))
        near = set(compress(s, close))
        near.update(compress(islice(s, 1, None), close))
        candidates = list(compress(range(n), map(near.__contains__, proj))) if near else []
    else:
        # node by node: the first node whose cell cannot be computed ends the scan
        candidates = []
        for j, (u, v) in enumerate(zip(us, vs)):
            try:
                math.floor(u / cell)
                math.floor(v / cell)
            except Exception as exc:
                error = exc
                break
            candidates.append(j)
        if not candidates:
            raise error
        n = len(candidates)
    buckets: dict[tuple[int, int], list[int]] = {}
    for c, j in enumerate(candidates):
        px, py = xs[j % scan_n], ys[j // scan_n]
        u, v = us[j], vs[j]
        ci, cj = math.floor(u / cell), math.floor(v / cell)
        best = None
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for idx in buckets.get((ci + di, cj + dj), ()):
                    if math.hypot(u - us[idx], v - vs[idx]) > collision_tol:
                        continue
                    if math.hypot(px - xs[idx % scan_n], py - ys[idx // scan_n]) < separation_min:
                        continue
                    if best is None or idx < best:
                        best = idx
        if best is not None:
            witness = ((xs[best % scan_n], ys[best // scan_n]), (px, py))
            return InjectivityCertificate(COLLISION, witness, j - c + len(buckets))
        buckets.setdefault((ci, cj), []).append(j)
    if error is not None:
        raise error
    return InjectivityCertificate(NO_COLLISION_FOUND, None, n - len(candidates) + len(buckets))


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
    """Max residual over the grid of Spc(Dg(p)) = Spc(Dphi(p)) - 1.

    Applies to orientation-preserving involutions fixing the origin with
    Dphi(0) = -I (from :func:`linear_part`).  Two 2x2 spectra agree iff
    their characteristic polynomials do, so with ``t`` and ``d`` the trace
    and determinant of Dphi(p), the identity is ``trace(Dg) = t - 2`` and
    ``det(Dg) = 1 - t + d``.  A node's residual is the larger of the two
    differences over ``1 + |t| + |a11*a22| + |a12*a21|``, the size of the
    terms of ``1 - t + d``.  The Jacobians are those of the grid sample, and
    each node takes the operations of ``Mat2.trace`` and ``Mat2.det`` on
    ``linear_part + jac`` and on ``jac``.
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
        g11, g22 = l11 + a11, l22 + a22
        t = a11 + a22
        p, q = a11 * a22, a12 * a21
        residual = max(abs((g11 + g22) - (t - 2.0)),
                       abs((g11 * g22 - (l12 + a12) * (l21 + a21)) - (1.0 - t + (p - q))))
        worst = max(worst, residual / (1.0 + abs(t) + abs(p) + abs(q)))
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
