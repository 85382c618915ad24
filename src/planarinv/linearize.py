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

The auxiliary map g = Dphi(0) + phi satisfies h = Dphi(0) g / 2 and, where
Dphi(0) = -I, Spc(Dg(p)) = Spc(Dphi(p)) - 1.  :func:`spectrum_shift_check`
compares the two characteristic polynomials at every grid node; as they
agree for every 2x2 matrix, its residual measures only the rounding of a
trace and a determinant, and no command runs it.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import compress, islice, repeat
from typing import NamedTuple

from .expr import PlanarMap
from .involution import GridSample, Region, linear_part
from .linalg2 import MINUS_IDENTITY, Mat2, power_of_two_scaled
from .spectral import _trace_product

NO_COLLISION_FOUND = "NoCollisionFound"
COLLISION = "Collision"

# The slope of the projection that :func:`injectivity_scan` sorts: the
# golden-ratio conjugate, the irrational worst approximated by rationals, so
# the images of a grid under a near-linear h seldom project close together;
# and the scan's rounding slacks, relative and in subnormal units.
ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
_SLACK = 2.0**-40
_UNDERFLOW = 16 * 2.0**-1074
_ROUND_UP = 1.0 + 2.0**-50
# The power of two by which :func:`spectrum_shift_check` scales a node whose
# terms overflow: a scaled finite entry is below 2^511, so no sum of two
# products of them overflows, and the size of the terms, at least 2^511
# before scaling, stays above 2^-515, far from where their roundings underflow
_SHIFT_SCALE = 2.0**-513


class NotApplicableError(ValueError):
    """An operation's structural precondition does not hold for this map."""


class StandardMap:
    """Derived map h(p) = (p + Dphi(0) phi(p)) / 2 with its linear part.

    ``evaluate_with_jacobian`` computes Dh(p) = (I + Dphi(0) Dphi(p)) / 2
    from the base map's propagated Jacobian.  ``entries`` holds the four
    entries of ``linear_part``, to which the per-point methods bind the base
    map's point kernels once (see :func:`planarinv.expr.compile_standard`);
    it stays out of ``repr`` and ``==``.
    """

    def __init__(self, base: PlanarMap, linear_part: Mat2):  # linear_part is Dphi(0)
        self.base = base
        self.linear_part = linear_part
        self.entries = (linear_part.a11, linear_part.a12, linear_part.a21, linear_part.a22)

    def __repr__(self) -> str:
        return f"StandardMap(base={self.base!r}, linear_part={self.linear_part!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.linear_part) == (other.base, other.linear_part)

    def __hash__(self) -> int:
        return hash((self.base, self.linear_part))

    @cached_property
    def _kernels(self) -> tuple:  # (h_value, h_jacobian)
        return self.base.standard_kernels(*self.entries)

    def evaluate(self, p: tuple[float, float]) -> tuple[float, float]:
        return self._kernels[0](p)

    def evaluate_grid(
        self, xs: list[float], ys: list[float]
    ) -> tuple[list[float], list[float], Exception | None]:
        """h at the nodes ``(x, y)``, ``y`` outer and ``x`` inner, in one call.

        Returns ``(us, vs, error)``: the components of h at every node
        before the first node where :meth:`evaluate` fails, bit for bit
        those of :meth:`evaluate`, and the exception that :meth:`evaluate`
        raises at that node (None if there is none).

        The grid kernel runs on past a node where phi is not finite, and
        stops only where an operation raises.  A non-finite phi(p) makes
        both components of h non-finite, whatever the linear part is, so
        when neither ``sum(us)`` nor ``sum(vs)`` is finite each node where
        neither component is finite is evaluated again, in node order, with
        ``self.base.evaluate``; the lists end at the first that raises.
        Where h overflows at a finite phi(p), that call returns and the
        node's values stay.  Where the
        kernel raised, the node it stopped at is evaluated the same way.
        ``self.base.evaluate`` raises what :meth:`evaluate` raises, and
        needs none of h's point kernels.
        """
        us: list[float] = []
        vs: list[float] = []
        try:
            self.base.grid_kernel()(xs, ys, *self.entries, us, vs)
        except Exception:
            pass  # the node is evaluated again below, for evaluate's exception
        n, stopped = len(xs), len(us)
        isfinite = math.isfinite
        suspects = [] if isfinite(sum(us)) or isfinite(sum(vs)) else [
            j for j, (u, v) in enumerate(zip(us, vs)) if not (isfinite(u) or isfinite(v))]
        if stopped < n * len(ys):
            suspects.append(stopped)
        for j in suspects:
            try:
                self.base.evaluate((xs[j % n], ys[j // n]))
            except Exception as exc:
                del us[j:], vs[j:]
                return us, vs, exc
        if stopped < n * len(ys):
            raise RuntimeError(f"the grid kernel stopped at node {stopped}, "
                               "where evaluate succeeds")
        return us, vs, None

    def evaluate_with_jacobian(self, p: tuple[float, float]) -> tuple[float, ...]:
        """h(p), Dh(p) and phi(p) as the floats ``(hx, hy, h11, h12, h21, h22, u, v)``.

        ``(hx, hy)`` takes :meth:`evaluate`'s operations and ``(u, v)`` is
        ``self.base.evaluate(p)``, bit for bit.  Each entry of Dh takes the
        operations of ``(I + Dphi(0) Dphi(p)).scale(0.5)`` in :class:`Mat2`
        arithmetic, in order (``0.0 +`` turns a -0.0 into 0.0)."""
        return self._kernels[1](p)


class InjectivityCertificate(NamedTuple):
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
    region: Region,
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
    (or a ValueError naming the node and the cell side, where a node's cell
    cannot be computed) is raised only if no collision precedes the node.
    Node ``j`` is ``(xs[j % scan_n], ys[j // scan_n])``; the points are built
    only where they are compared or reported.

    Only "crowded" nodes, whose cell is shared with or touches another
    node's cell, can collide.  A node is a first-stage candidate when its
    projection ``u + ALPHA*v`` is within ``delta`` of a neighbour's in
    sorted order.  Images in touching cells differ by less than ``2*cell``
    per coordinate, so their projections, and any sorted between them, by
    less than ``2*cell*(1 + ALPHA)``.  ``delta`` adds ``_SLACK*(1 + ALPHA)*(M
    + cell) + _UNDERFLOW``, far above the rounding of ``u/cell`` and of the
    projections (``4 * 2^-52 * (1 + ALPHA) * max(|u|, |v|)``), so every
    crowded node is a candidate.  ``M`` bounds ``max(|u|, |v|)`` from above
    without a pass over ``us``: ``|u| <= |u + ALPHA*v| + ALPHA*|v|``, so ``M``
    is the larger of ``max(|v|)`` and ``(P + ALPHA*max(|v|))*(1 + 2^-50)``,
    with ``P`` the larger end of the sorted projections in absolute value;
    the factor covers the roundings, and a larger ``M`` only widens
    ``delta``.  Where the smallest sorted gap exceeds ``delta``, that one
    pass over the gaps shows that no node is a candidate.  The candidates
    are then filtered again by the orthogonal projection ``v - ALPHA*u``,
    sorted among the candidates alone, with the same ``delta``: both nodes
    of a crowded pair are first-stage candidates, so their projections and
    those sorted between them are there, and no crowded node is dropped.  Only the
    remaining candidates get cells and are compared pairwise, in node
    order, which keeps the witness.  A non-candidate is not crowded, so its
    cell is its own, and candidates share cells only with candidates: the
    first ``j`` nodes hold ``j - c + k`` distinct cells when ``c`` of them
    are candidates in ``k`` cells, whichever superset of the crowded nodes
    the candidates are, as each extra candidate brings its own cell.  When
    a projection or ``M/cell`` is not finite, every node is a candidate, and
    the scan ends at the first node whose cell cannot be computed; where
    only an orthogonal projection is not finite, the second filter is
    skipped.
    """
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
    candidates = range(n)
    if math.isfinite(sum(proj)):  # then every u and v is finite
        s = sorted(proj)
        top = max(max(vs), -min(vs))
        bound = max(top, (max(s[-1], -s[0]) + ALPHA * top) * _ROUND_UP)  # at least M
        if bound / cell < math.inf:
            delta = (1.0 + ALPHA) * ((2.0 + _SLACK) * cell + _SLACK * bound) + _UNDERFLOW
            near = _near_in_sorted_order(s, delta)
            candidates = list(compress(range(n), map(near.__contains__, proj))) if near else []
            across = [vs[j] - ALPHA * us[j] for j in candidates]
            if math.isfinite(sum(across)):
                near = _near_in_sorted_order(sorted(across), delta)
                candidates = list(compress(candidates, map(near.__contains__, across)))
    buckets: dict[tuple[int, int], list[int]] = {}
    for c, j in enumerate(candidates):
        px, py = xs[j % scan_n], ys[j // scan_n]
        u, v = us[j], vs[j]
        try:
            ci, cj = math.floor(u / cell), math.floor(v / cell)
        except (OverflowError, ValueError) as exc:
            error = ValueError(f"the image {(u, v)} of node {(px, py)} has no scan cell "
                               f"of side {cell!r}: {exc}")
            break
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


def _near_in_sorted_order(s: list[float], delta: float) -> set[float]:
    """The values of the sorted list ``s`` that lie within ``delta`` of a neighbour."""
    if min(map(operator.sub, islice(s, 1, None), s), default=math.inf) > delta:
        return set()
    close = list(map(operator.le, map(operator.sub, islice(s, 1, None), s), repeat(delta)))
    near = set(compress(s, close))
    near.update(compress(islice(s, 1, None), close))
    return near


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
    ``linear_part + jac`` and on ``jac``; where a term of ``t^2 - 4d``
    overflows, on both times ``k = 2^-513`` (the residual is relative; the
    trace difference, of degree 1, times ``k``).  So every finite node's
    residual is a few roundings, and a NaN residual makes the result inf.
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
        t = a11 + a22
        p, q = a11 * a22, a12 * a21
        k, m11, m12, m21, m22 = 1.0, l11, l12, l21, l22
        if t * t + 4.0 * abs(p) + 4.0 * abs(q) == math.inf:  # take it on scaled entries
            k = _SHIFT_SCALE
            a11, a12, a21, a22 = k * a11, k * a12, k * a21, k * a22
            m11, m12, m21, m22 = k * l11, k * l12, k * l21, k * l22
            t, p, q = a11 + a22, a11 * a22, a12 * a21
        g11, g22 = m11 + a11, m22 + a22
        residual = max(abs((g11 + g22) - (t - 2.0 * k)) * k,
                       abs((g11 * g22 - (m12 + a12) * (m21 + a21)) - (k * k - k * t + (p - q))))
        residual /= k * k + k * abs(t) + abs(p) + abs(q)
        if not residual <= worst:
            worst = residual if residual == residual else math.inf
    return worst


class JacobianBounds(NamedTuple):
    min_trace: float
    min_det: float


def theorem_B_jacobian_check(sample: GridSample) -> JacobianBounds:
    """Minimum trace and determinant of Dh over the grid.

    Under the verified trace condition of an orientation-reversing base
    involution both minima are positive (the trace stays above 1/2), which
    is what forces Spc(h) away from (-inf, 0].  With ``L = Dphi(0)`` from
    :func:`linear_part` and ``A`` the sample's Jacobian, Dh is
    ``(I + L A)/2``: its trace is ``1 + Trace(L A)/2``, with the trace
    product of :func:`planarinv.spectral._trace_product`, and its
    determinant takes the operations of
    :meth:`StandardMap.evaluate_with_jacobian` on the entries of Dh.  Where those overflow both ways (a NaN), it is
    ``det(kl*ka I + L' A')/4`` over ``(kl*ka)^2``, with ``L' = kl L`` and
    ``A' = ka A`` scaled by powers of two (:func:`power_of_two_scaled`), as
    the trace product is.  A NaN that remains makes a minimum -inf.
    """
    lin = linear_part(sample.planar_map)
    l11, l12, l21, l22 = lin.a11, lin.a12, lin.a21, lin.a22
    min_trace = math.inf
    min_det = math.inf
    for a11, a12, a21, a22 in zip(sample.ux, sample.uy, sample.vx, sample.vy):
        trace = 1.0 + 0.5 * _trace_product(lin, a11, a12, a21, a22)
        h11 = 0.5 * (1.0 + (l11 * a11 + l12 * a21))
        h12 = 0.5 * (0.0 + (l11 * a12 + l12 * a22))
        h21 = 0.5 * (0.0 + (l21 * a11 + l22 * a21))
        h22 = 0.5 * (1.0 + (l21 * a12 + l22 * a22))
        det = h11 * h22 - h12 * h21
        if det != det:  # take it on scaled entries
            kl, m11, m12, m21, m22 = power_of_two_scaled(l11, l12, l21, l22)
            ka, b11, b12, b21, b22 = power_of_two_scaled(a11, a12, a21, a22)
            k = kl * ka
            g11 = k + (m11 * b11 + m12 * b21)
            g12 = 0.0 + (m11 * b12 + m12 * b22)
            g21 = 0.0 + (m21 * b11 + m22 * b21)
            g22 = k + (m21 * b12 + m22 * b22)
            det = (g11 * g22 - g12 * g21) / kl / ka / kl / ka / 4.0
        if not trace >= min_trace:
            min_trace = trace if trace == trace else -math.inf
        if not det >= min_det:
            min_det = det if det == det else -math.inf
    return JacobianBounds(min_trace, min_det)
