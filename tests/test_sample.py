"""Every phase that reads a ``GridSample`` against the per-node code it replaced.

The references below are the per-node loops that ``verify_involution``,
``orientation``, ``sample_spectrum``, ``check_condition_A``,
``check_condition_B``, ``spectrum_shift_check`` and
``theorem_B_jacobian_check`` ran before they read one shared grid sample,
and the per-node window grid of ``foliation``.  Results are compared by
``repr`` (witnesses, margins and signed zeros included) and exceptions by
type and message.  Where taking the sample raises, the exception is that of
``jacobian_entries`` at the first failing node.

``find_fixed_points`` seeds Newton only where the fixed set can cross a grid
cell; the old search from every node is kept as its coverage reference.
"""

import contextlib
import csv
import io
import json
import math
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from matrices import value_and_jacobian
from test_grid import _GRID_MAPS, FLIP_Y
from test_scan import _WINDOWS

from planarinv import cli, foliation, gallery, involution, linearize, spectral
from planarinv.expr import ExprNode, PlanarMap, parse
from planarinv.foliation import Leaf, diagonalize_involution
from planarinv.involution import (
    ORIENTATION_PRESERVING,
    ORIENTATION_REVERSING,
    UNCLASSIFIED,
    CURVE,
    DegenerateJacobianError,
    FixedPoint,
    FixedPointScan,
    GridSample,
    InvolutionCheck,
    OrientationClass,
    Region,
    find_fixed_points,
    linear_part,
    orientation,
    polish_fixed_point,
    verify_involution,
)
from planarinv.linalg2 import IDENTITY, MINUS_IDENTITY, eigenvalues
from planarinv.linearize import (
    JacobianBounds,
    NotApplicableError,
    StandardMap,
    spectrum_shift_check,
    standard_map,
    theorem_B_jacobian_check,
)
from planarinv.spectral import (
    COND_A_GAP,
    COND_A_IDENTITY,
    COND_A_REAL,
    COND_B_TRACE,
    ConditionVerdict,
    SpectrumSample,
    TheoremAChecks,
    check_condition_A,
    check_condition_B,
    sample_spectrum,
    theorem_verdict,
)

# ----------------------------------------------------------------------
# the per-node references
# ----------------------------------------------------------------------


def _ref_verify(planar_map, region, tol=1e-9):
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


def _ref_orientation(planar_map, region):
    sign = 0
    min_abs = math.inf
    for p in region.nodes():
        _, jac = value_and_jacobian(planar_map, p)
        k = 1.0
        if math.isinf(abs(jac.a11 * jac.a22) + abs(jac.a12 * jac.a21)):
            # a product overflows: decide on jac scaled by a power of two
            k = 2.0 ** -math.frexp(jac.max_abs())[1]
            jac = jac.scale(k)
        d = jac.det
        if abs(d) <= 1e-12 * (abs(jac.a11 * jac.a22) + abs(jac.a12 * jac.a21)):
            raise DegenerateJacobianError("Jacobian determinant vanishes", p)
        s = 1 if d > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            raise DegenerateJacobianError("Jacobian determinant changes sign", p)
        min_abs = min(min_abs, abs(d) / k / k)
    kind = ORIENTATION_PRESERVING if sign > 0 else ORIENTATION_REVERSING
    return OrientationClass(kind, min_abs)


def _ref_sample_spectrum(planar_map, region):
    lin = linear_part(planar_map)  # the base is the origin
    samples = []
    for p in region.nodes():
        _, jac = value_and_jacobian(planar_map, p)
        trace_product = (lin @ jac).trace
        if math.isnan(trace_product):
            # products overflow both ways: take it from both matrices scaled
            kl, ka = _ref_scale(lin), _ref_scale(jac)
            trace_product = (lin.scale(kl) @ jac.scale(ka)).trace / kl / ka
        samples.append(SpectrumSample(p, eigenvalues(jac), trace_product))
    return samples


def _ref_scale(jac):
    """The power of two that brings the largest entry of ``jac`` into [1/2, 1)."""
    return 2.0 ** -math.frexp(jac.max_abs())[1]


def _ref_overflows(jac):
    """True where a term of ``t^2 - 4d`` overflows."""
    t, p, q = jac.trace, jac.a11 * jac.a22, jac.a12 * jac.a21
    return math.isinf(t * t + 4.0 * abs(p) + 4.0 * abs(q))


def _ref_rounding(*terms):
    return 16 * 2.0**-52 * sum(abs(term) for term in terms)


def _ref_distance_to_one(jac, k):
    """dist(k, Spc(jac)), the smaller modulus of the roots of the
    characteristic polynomial of ``jac - kI``."""
    t, one = jac.trace, k * k - k * jac.trace + jac.det
    s = t - 2.0 * k
    disc = t * t - 4.0 * jac.det
    disc_tol = _ref_rounding(t * t, 4.0 * jac.a11 * jac.a22, 4.0 * jac.a12 * jac.a21) \
        + 16 * 2.0**-1074
    if disc < -disc_tol:
        return math.sqrt(abs(one))
    if disc <= disc_tol:
        return abs(s) / 2.0
    return 2.0 * abs(one) / (abs(s) + math.sqrt(disc))


def _ref_gap(jac):
    """``p(1)``, its rounding size and ``dist(1, Spc)``; where a term of
    ``t^2 - 4d`` overflows, ``k^2 p(1)``, its rounding size and the distance
    from ``jac`` scaled by a power of two ``k``."""
    t, p, q = jac.trace, jac.a11 * jac.a22, jac.a12 * jac.a21
    if not _ref_overflows(jac):
        return 1.0 - t + jac.det, _ref_rounding(1.0, t, p, q), _ref_distance_to_one(jac, 1.0)
    k = _ref_scale(jac)
    b = jac.scale(k)
    t, p, q = b.trace, b.a11 * b.a22, b.a12 * b.a21
    return (k * k - k * t + b.det, _ref_rounding(k * k, k * t, p, q) + 16 * 2.0**-1074,
            _ref_distance_to_one(b, k) / k)


def _ref_real_margin(jac):
    """``t^2 - 4d`` plus its rounding size; where a term overflows, that of
    ``jac`` scaled by a power of two, over the scale squared."""
    t, p, q = jac.trace, jac.a11 * jac.a22, jac.a12 * jac.a21
    if not _ref_overflows(jac):
        tol = _ref_rounding(t * t, 4.0 * p, 4.0 * q) + 16 * 2.0**-1074
        return t * t - 4.0 * jac.det + tol
    k = _ref_scale(jac)
    return _ref_real_margin(jac.scale(k)) / k / k


def _ref_check_A(planar_map, region):
    samples = _ref_sample_spectrum(planar_map, region)
    margin_a = margin_c = dist_one = math.inf
    witness_a = witness_c = vanishes = flips = None
    sign = 0.0
    for sample in samples:
        _, jac = value_and_jacobian(planar_map, sample.point)
        # (a) on the entries that (b) reads: scaled by k where a term overflows
        one, one_tol, dist = _ref_gap(jac)
        k = _ref_scale(jac) if _ref_overflows(jac) else 1.0
        b = jac.scale(k)
        m = min((_ref_rounding(2.0 * k, b.a11, b.a22) - abs(b.trace - 2.0 * k)) / k,
                (one_tol - abs(one)) / k / k)
        margin_a = min(margin_a, m if m == m else -math.inf)
        if witness_a is None and not m >= 0.0:
            witness_a = sample
        m = _ref_real_margin(jac)
        margin_c = min(margin_c, m if m == m else -math.inf)
        if witness_c is None and not m >= 0.0:
            witness_c = sample
        if not abs(one) > one_tol:
            vanishes = vanishes or sample
        elif vanishes is None:
            sign = sign or one
            if flips is None and (one > 0.0) != (sign > 0.0):
                flips = sample
            dist_one = min(dist_one, dist)
    witness_b = vanishes or flips
    return TheoremAChecks(
        ConditionVerdict(COND_A_IDENTITY, witness_a is None, witness_a, margin_a),
        ConditionVerdict(COND_A_GAP, witness_b is None, witness_b,
                         dist_one if witness_b is None else 0.0),
        ConditionVerdict(COND_A_REAL, witness_c is None, witness_c, margin_c))


def _ref_check_B(samples):
    min_tp = math.inf
    witness = None
    for sample in samples:
        if sample.trace_product < min_tp:
            min_tp = sample.trace_product
        if witness is None and sample.trace_product <= -1.0:
            witness = sample
    holds = min_tp > -1.0
    return ConditionVerdict(COND_B_TRACE, holds, None if holds else witness, min_tp + 1.0)


def _ref_shift(planar_map, region):
    lin = linear_part(planar_map)
    if (lin - MINUS_IDENTITY).max_abs() > 1e-9:
        raise NotApplicableError(
            "the spectrum shift identity needs Dphi(0) = -I; "
            f"got linear part {lin.rows()}")
    worst = 0.0
    for p in region.nodes():
        _, jac = value_and_jacobian(planar_map, p)
        # where a term overflows, both matrices scaled by k; the trace
        # difference is of degree 1 in k, the others of degree 2
        k = _ref_scale(jac) if _ref_overflows(jac) else 1.0
        a = jac.scale(k)
        g = lin.scale(k) + a
        residual = max(abs(g.trace - (a.trace - 2.0 * k)) * k,
                       abs(g.det - (k * k - k * a.trace + a.det)))
        scale = k * k + k * abs(a.trace) + abs(a.a11 * a.a22) + abs(a.a12 * a.a21)
        residual /= scale
        worst = max(worst, residual if residual == residual else math.inf)
    return worst


def _ref_find_fixed_points(planar_map, region, newton_tol=1e-9, max_iter=60):
    merge_radius = 1e-6 * region.diameter
    roots = []
    buckets = {}
    converged = skipped = 0
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
    curve = len(roots) > max(1, 0.05 * region.grid_n)
    points = []
    for root in roots:
        _, jac = value_and_jacobian(planar_map, root)
        cls = involution.classify_fixed_point(jac)
        if curve and cls == UNCLASSIFIED:
            cls = CURVE
        points.append(FixedPoint(root, cls, jac))
    return FixedPointScan(points, CURVE if curve else "point", converged, skipped)


def _ref_theorem_B(planar_map, region):
    lin = linear_part(planar_map)
    h = standard_map(planar_map)
    min_trace = math.inf
    min_det = math.inf
    for sample in _ref_sample_spectrum(planar_map, region):
        # trace Dh = 1 + Trace(Dphi(0) Dphi(p))/2
        trace = 1.0 + 0.5 * sample.trace_product
        _, dh = value_and_jacobian(h, sample.point)
        det = dh.det
        if math.isnan(det):
            # products overflow both ways: det(I + L A) = det(k I + L' A')/k^2,
            # with L' and A' scaled by powers of two and k the product of the scales
            _, jac = value_and_jacobian(planar_map, sample.point)
            kl, ka = _ref_scale(lin), _ref_scale(jac)
            g = IDENTITY.scale(kl * ka) + lin.scale(kl) @ jac.scale(ka)
            det = g.det / kl / ka / kl / ka / 4.0
        min_trace = min(min_trace, trace if trace == trace else -math.inf)
        min_det = min(min_det, det if det == det else -math.inf)
    return JacobianBounds(min_trace, min_det)


def _first_failure(planar_map, region):
    """``jacobian_entries``' exception at the first node where it raises,
    as an outcome, or None."""
    for p in region.nodes():
        try:
            planar_map.evaluate_with_jacobian(p)
        except Exception as exc:  # noqa: BLE001 - any exception must match
            return "raised", type(exc), str(exc)
    return None


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - any exception must match
        return "raised", type(exc), str(exc)
    if isinstance(result, (list, spectral.SpectrumSamples)):
        return "ok", len(result), [repr(item) for item in result]
    return "ok", repr(result)


def _assert_phases_match(planar_map, region):
    """Each sample-reading phase, on one sample, against its reference; or,
    where taking the sample raises, that exception against the first
    failing node's."""
    failure = _first_failure(planar_map, region)
    try:
        sample = GridSample(planar_map, region)
    except Exception as exc:  # noqa: BLE001 - any exception must match
        assert ("raised", type(exc), str(exc)) == failure
        return
    assert failure is None
    pairs = [
        (verify_involution, _ref_verify),
        (orientation, _ref_orientation),
        (sample_spectrum, _ref_sample_spectrum),
        (lambda sample: check_condition_A(sample_spectrum(sample)), _ref_check_A),
        (spectrum_shift_check, _ref_shift),
        (theorem_B_jacobian_check, _ref_theorem_B),
    ]
    for phase, reference in pairs:
        assert _outcome(phase, sample) == _outcome(reference, planar_map, region), \
            phase.__name__
    try:
        new = sample_spectrum(sample)
        old = _ref_sample_spectrum(planar_map, region)
    except Exception:  # noqa: BLE001 - the raise itself matched above
        return
    assert _outcome(check_condition_B, new) == _outcome(_ref_check_B, old)


# ----------------------------------------------------------------------
# parity on random maps, gallery entries and hand-picked edge cases
# ----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(_GRID_MAPS, _WINDOWS, st.integers(2, 6))
@example(parse("(x, -y + 0*sqrt(x*x))"), Region(-5, 5, -5, 5), 5)
@example(parse("(-x + y^2/3, -y)"), Region(-5, 5, -5, 5), 5)
@example(parse("(x + 0*y^999, -y)"), Region(3, 5, 3, 5), 3)
@example(parse("(x^2, y)"), Region(-1, 1, -1, 1), 5)
@example(parse("(2, 3)"), Region(-1, 1, -1, 1), 3)
@example(parse("(-0*x, -y)"), Region(-1, 1, -1, 1), 3)
@example(parse("(1e200*x, 1e200*y)"), Region(-1, 1, -1, 1), 3)
@example(parse("(1e154*x - y, 1e154*y + x)"), Region(-1, 1, -1, 1), 3)
@example(parse("(1e200*x - 1e200*y, 1e200*y + 1e200*x)"), Region(-1, 1, -1, 1), 3)
@example(parse("(1e200*x + 2e200*y, -1e200*x - 1e200*y)"), Region(-1, 1, -1, 1), 3)
@example(parse("(1e200*(-x + y + x^2 - 0.5*x*y), 1e200*(x + 2*y - 4*x*y))"),
         Region(0, 1, -0.01, 0.01), 3)
@example(parse("(-x + 1e200*y^2, -y + 1e200*x^2)"), Region(-1, 1, -1, 1), 3)
@example(parse("(-x + 0.3*((x+y)/2)^2, -y - 0.3*((x+y)/2)^2)"), Region(-5, 5, -5, 5), 6)
def test_phases_match_per_node_reference(planar_map, region, grid_n):
    _assert_phases_match(planar_map, region.with_grid(grid_n))


def test_phases_match_per_node_reference_on_every_gallery_entry():
    for name in gallery.list_entries():
        entry = gallery.get(name)
        _assert_phases_match(entry.map, entry.window.with_grid(13))


def test_phases_match_on_a_decimal_constant_component():
    # the constant component is a Decimal that evaluate and the Jacobian
    # kernel turn into a float; mixed with x it raises TypeError everywhere
    constant = ExprNode("num", value=Decimal("2.5"))
    region = Region(-1, 1, -1, 1, 4)
    _assert_phases_match(PlanarMap.from_expressions(constant, ExprNode("y"), "decimal"), region)
    mixed = ExprNode("add", (ExprNode("x"), constant))
    _assert_phases_match(PlanarMap.from_expressions(mixed, ExprNode("y"), "mixed"), region)


def test_phases_match_on_native_maps():
    # a quotient that raises at x = 0, and a value that is inf where x > 0
    region = Region(-1, 1, -1, 1, 5)
    for source in ("(1/x, -y)", "(-x + (x + abs(x))*1e308*10, -y)"):
        _assert_phases_match(parse(source), region)


# ----------------------------------------------------------------------
# fixed points: the seeded search against the search from every node
# ----------------------------------------------------------------------

# perfbench's generated families: each is an involution fixing the origin
# when q has the stated parity in the stated variable
_TEMPLATES = {
    "(x + ({q}), -y)": ((1, 3, 5, 7, 9), "y"),
    "(-x + ({q}), -y)": ((2, 4, 6, 8, 10), "y"),
    "(-y - ({q}), -x + ({q}))": ((1, 3, 5, 7, 9), "((x+y)/2)"),
    "(-x + ({q}), -y - ({q}))": ((2, 4, 6, 8, 10), "((x+y)/2)"),
}


@st.composite
def _generated_maps(draw):
    template = draw(st.sampled_from(sorted(_TEMPLATES)))
    degrees, var = _TEMPLATES[template]
    chosen = draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=4, unique=True))
    q = " + ".join(f"({draw(st.floats(-1.5, 1.5)) / 5.0 ** k!r})*{var}^{k}"
                   for k in sorted(chosen))
    return parse(template.format(q=q))


def _assert_fixed_points_cover_the_reference(planar_map, region, tol=1e-9):
    """Where the fixed set is a point (or everything), the seeded search finds
    the reference's roots in the window, one for one up to the merge radius
    (Newton from other seeds may stop elsewhere within ``tol``); on a curve
    every reference root in the window is within one grid-cell diagonal of a
    root found; and every root found is a fixed point to ``tol``."""
    scan = find_fixed_points(GridSample(planar_map, region))
    found = [fp.location for fp in scan.points]
    expected = [fp.location for fp in _ref_find_fixed_points(planar_map, region, tol).points
                if region.contains(fp.location)]
    for q in found:
        fx, fy = planar_map.evaluate(q)
        assert math.hypot(fx - q[0], fy - q[1]) <= tol
    if scan.kind == CURVE:
        near = region.diameter / (region.grid_n - 1)
    else:
        near = 1e-6 * region.diameter
        assert len(found) == len(expected)
    for p in expected:
        assert any(math.hypot(p[0] - q[0], p[1] - q[1]) <= near for q in found), p
    return scan


@settings(max_examples=150, deadline=None)
@given(_generated_maps())
@example(parse("(-x + (0.04*y^2), -y)"))
@example(parse("(-y - (0.2*((x+y)/2)^1), -x + (0.2*((x+y)/2)^1))"))
@example(parse("(-x + 1e-09*((x+y)/2)^2, -y - 1e-09*((x+y)/2)^2)"))  # a root off (0, 0)
def test_fixed_points_cover_the_search_from_every_node(planar_map):
    scan = _assert_fixed_points_cover_the_reference(planar_map, Region(-5, 5, -5, 5, 15))
    assert scan.kind == (CURVE if linear_part(planar_map).det < 0 else "point")


def test_fixed_points_cover_the_search_from_every_node_on_the_gallery():
    kinds = {"A1": CURVE, "A2": "point", "A3": CURVE, "A4": "point", "B": CURVE,
             "C": "point", "identity": "all", "minus-identity": "point", "flip-y": CURVE}
    assert sorted(kinds) == sorted(gallery.list_entries())
    for name, kind in kinds.items():
        for n in (0, 1, 2) if gallery.get(name).n is not None else (None,):
            entry = gallery.get(name, n)
            scan = _assert_fixed_points_cover_the_reference(entry.map, entry.window)
            assert scan.kind == kind, (name, n)


def test_theorem_verdict_reads_one_sample(monkeypatch):
    # orientation and the spectrum are taken through the module-global names,
    # each once, from the very sample that theorem_verdict was given
    calls = []
    for name in ("orientation", "sample_spectrum"):
        phase = getattr(spectral, name)
        monkeypatch.setattr(spectral, name,
                            lambda s, phase=phase: calls.append(s) or phase(s))
    for name in gallery.list_entries():
        entry = gallery.get(name)
        sample = GridSample(entry.map, entry.window)
        calls.clear()
        assessment = theorem_verdict(sample)
        assert len(calls) == 2 and all(s is sample for s in calls)
        assert repr(assessment.orientation) == repr(_ref_orientation(entry.map, entry.window))


# ----------------------------------------------------------------------
# the sample itself
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(_GRID_MAPS, _WINDOWS, st.integers(2, 6))
@example(parse("(x/3, y/(x + 7))"), Region(-5, 5, -5, 5), 6)
def test_sample_values_are_evaluate_values(planar_map, region, grid_n):
    region = region.with_grid(grid_n)
    failure = _first_failure(planar_map, region)
    try:
        sample = GridSample(planar_map, region)
    except Exception as exc:  # noqa: BLE001 - any exception must match
        assert ("raised", type(exc), str(exc)) == failure
        return
    assert failure is None
    nodes = list(region.nodes())
    assert list(zip(sample.px, sample.py)) == nodes
    columns = (sample.u, sample.v, sample.ux, sample.uy, sample.vx, sample.vy)
    assert {len(column) for column in columns} == {len(nodes)}
    for j, p in enumerate(nodes):
        assert tuple(column[j] for column in columns) == planar_map.evaluate_with_jacobian(p)
        got = (sample.u[j], sample.v[j])
        assert repr(got) == repr(planar_map.evaluate(p))
        assert all(type(value) is float for value in got)


def _values_match_evaluate(planar_map, points) -> None:
    for p in points:
        assert repr(planar_map.evaluate_with_jacobian(p)[:2]) == repr(planar_map.evaluate(p)), p


def test_division_by_a_subexpression_of_x_or_y_keeps_values_exact():
    # x * (1/3) and x / 3 differ at some x = 0.1*i, so a reciprocal shows there
    region = Region(-5, 5, -5, 5, 21)
    points = list(region.nodes()) + [(0.1 * i, 0.0) for i in range(1, 10)]
    for source in ("(x/3, y)", "(x, y/(x + 7))", "(x/(1 + 1), y)", "(x/2, (x + y)/0.25)",
                   "(x - y^3, 1/(1 + x*x))"):
        _values_match_evaluate(parse(source), points)
    entry = gallery.get("C")
    _values_match_evaluate(entry.map, entry.window.nodes())


def test_dividing_native_map_keeps_values_exact():
    # quotients of varying by constant, varying by varying and constant by varying
    planar_map = parse("(x/3 - y/(x*x + 7), 10/(y + 9) + x/0.1)")
    region = Region(-5, 5, -5, 5, 21)
    _values_match_evaluate(planar_map, list(region.nodes()) + [(0.1 * i, 0.3) for i in range(10)])


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False).filter(bool)
       | st.sampled_from([3.0, 0.1, -7.0, 5e-324, 1e-320, 2.0 ** -1022]),
       st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([5e-324, -0.0]))
def test_dividing_by_a_literal_keeps_values_exact(divisor, x):
    literal = ExprNode("num", value=divisor)
    m = PlanarMap.from_expressions(ExprNode("div", (ExprNode("x"), literal)), ExprNode("y"), "lit")
    try:
        entries = m.evaluate_with_jacobian((x, 1.0))
    except ArithmeticError:
        return  # the quotient or its partial overflows
    assert repr(entries[:2]) == repr(m.evaluate((x, 1.0)))


def test_spectrum_samples_are_a_sequence():
    entry = gallery.get("A1")
    new = sample_spectrum(GridSample(entry.map, entry.window.with_grid(5)))
    old = _ref_sample_spectrum(entry.map, entry.window.with_grid(5))
    assert len(new) == 25
    assert repr(new[-1]) == repr(old[-1]) and repr(new[3]) == repr(old[3])
    assert [repr(s) for s in new[2:9:3]] == [repr(s) for s in old[2:9:3]]
    with pytest.raises(IndexError):
        new[25]


# ----------------------------------------------------------------------
# one Jacobian per window node in analyze
# ----------------------------------------------------------------------

def test_analyze_takes_one_jacobian_per_window_node(monkeypatch):
    # an even grid keeps the origin (where h's and the trace product's linear
    # part are taken) off the nodes; Newton iterations after the first run
    # inside polish_fixed_point and are not counted, one polish runs per seed,
    # and a root that is a node is classified from one more Jacobian there
    region = Region(-5.0, 5.0, -5.0, 5.0, 10)
    nodes = set(region.nodes())
    counts = {"nodes": 0, "polish": 0}
    depth = [0]
    entries, polish = PlanarMap.evaluate_with_jacobian, involution.polish_fixed_point

    def counting_entries(self, p):
        if not depth[0] and (p[0], p[1]) in nodes:
            counts["nodes"] += 1
        return entries(self, p)

    def counting_polish(*args, **kwargs):
        counts["polish"] += 1
        depth[0] += 1
        try:
            return polish(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(PlanarMap, "evaluate_with_jacobian", counting_entries)
    monkeypatch.setattr(involution, "polish_fixed_point", counting_polish)
    for spec in ("gallery:A1:1", "gallery:A2:1", "gallery:C", "(x - y^3, -y)"):
        counts.update(nodes=0, polish=0)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["analyze", spec, "--grid", "10", "--window", "-5,5,-5,5",
                             "--scan", "11"]) == 0
        report = json.loads(out.getvalue())
        assert report["window"]["grid_n"] == 10 and report["fixed_points"]["count"] <= 64
        roots_on_nodes = sum(tuple(point["location"]) in nodes
                             for point in report["fixed_points"]["points"])
        seeds = report["fixed_points"]["seeds_converged"] + report["fixed_points"]["seeds_skipped"]
        assert 0 < seeds < 100, spec
        assert counts == {"nodes": 100 + roots_on_nodes, "polish": seeds}, spec


def test_analyze_reports_the_failing_node_of_a_finite_valued_map(capsys):
    # 0*sqrt(x*x) has a finite value everywhere but no derivative at x = 0:
    # taking the grid sample, under verify, names the first such node
    assert cli.main(["analyze", "(x, -y + 0*sqrt(x*x))", "--grid", "5", "--scan", "11"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("analyze: [verify] derivative of sqrt at zero "
                            "while evaluating at (0.0, -5.0)\n")


def test_foliate_reports_the_failing_node_of_a_finite_valued_map(tmp_path, capsys):
    csv_path = tmp_path / "leaves.csv"
    assert cli.main(["foliate", "(x, -y + 0*sqrt(x*x))", "--grid", "5",
                     "--csv", str(csv_path), "--force"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not csv_path.exists()
    assert captured.err == ("foliate: [verify] derivative of sqrt at zero "
                            "while evaluating at (0.0, -5.0)\n")


def test_a_non_c1_non_involution_exits_1_in_verify(capsys):
    # not an involution, and not C^1 at x = 0: the sample is refused before
    # the involution check could report "not an involution" with exit 0
    assert cli.main(["analyze", "(x + 1e-3*x*x + 0*sqrt(x*x), -y)", "--scan", "21"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("analyze: [verify] derivative of sqrt at zero "
                            "while evaluating at (0.0, -5.0)\n")


# ----------------------------------------------------------------------
# foliate: the window grid of h and the CSV writer
# ----------------------------------------------------------------------

def _ref_eigen_grid(h, s, region):
    return [(s.apply(h.evaluate(p)), p) for p in region.nodes()]


def _parameters(h, fol, region):
    return foliation.default_leaf_parameters(
        fol, foliation._eigen_grid(h, fol.change_of_basis, region))


def _ref_parameters(h, fol, region):
    lo, hi = _ref_parameter_range(h, fol, region)
    return [lo + i * (hi - lo) / 20 for i in range(21)]


def _ref_parameter_range(h, fol, region):
    if fol.kind == foliation.RADIAL:
        return (0.0, 2.0 * math.pi)
    s = fol.change_of_basis
    lo, hi = math.inf, -math.inf
    for p in region.nodes():
        w = s.apply(h.evaluate(p))
        lo = min(lo, w[0])
        hi = max(hi, w[0])
    return (lo, hi)


def test_window_grid_of_h_matches_per_node_reference(monkeypatch):
    fol = diagonalize_involution(FLIP_Y)
    region = Region(-1.0, 1.0, 0.5, 3.0, 7)
    hs = [linearize.standard_map(gallery.get(name).map)
          for name in ("A1", "A3", "B", "flip-y")]
    hs += [StandardMap(parse(source), FLIP_Y) for source in
           ("(1/(x - 0.5), y)", "(x, 1/(y - 2))", "(1e308*x*1e10, y)", "(5e307*x, 0)")]
    for h in hs:
        s = fol.change_of_basis
        assert _outcome(foliation._eigen_grid, h, s, region) == \
            _outcome(_ref_eigen_grid, h, s, region)
        assert _outcome(_parameters, h, fol, region) == \
            _outcome(_ref_parameters, h, fol, region)
    calls = {"grid": 0, "evaluate": 0}
    grid, evaluate = StandardMap.evaluate_grid, StandardMap.evaluate

    def counting_grid(self, xs, ys):
        calls["grid"] += 1
        return grid(self, xs, ys)

    def counting_evaluate(self, p):
        calls["evaluate"] += 1
        return evaluate(self, p)

    monkeypatch.setattr(StandardMap, "evaluate_grid", counting_grid)
    monkeypatch.setattr(StandardMap, "evaluate", counting_evaluate)
    # a family of leaves takes its parameters and its anchors from one grid,
    # and the march's invariance check evaluates h once per point, at phi(q)
    leaves = foliation.trace_leaves(hs[2], fol, region, count=3)
    assert calls == {"grid": 1, "evaluate": sum(len(leaf.points) for leaf in leaves)}


@pytest.mark.parametrize("spec, grids", [("gallery:B", 1), ("gallery:A2", 0)],
                         ids=["vertical", "radial"])
def test_foliate_evaluates_the_window_grid_of_h_at_most_once(spec, grids, monkeypatch,
                                                              tmp_path, capsys):
    calls = []
    grid = StandardMap.evaluate_grid

    def counting_grid(self, xs, ys):
        calls.append(self)
        return grid(self, xs, ys)

    monkeypatch.setattr(StandardMap, "evaluate_grid", counting_grid)
    assert cli.main(["foliate", spec, "--csv", str(tmp_path / "leaves.csv")]) == 0
    assert "leaves traced:" in capsys.readouterr().out
    assert len(calls) == grids


def test_leaf_csv_bytes_are_csv_writer_bytes(tmp_path):
    values = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.1, -2.5e-300]
    leaves = [
        Leaf(-0.0, [(v, -v) for v in values], values[::-1], truncated=True),
        Leaf(math.nan, [], []),
        Leaf(1e16, [(5e-324, math.inf)], [math.nan]),
        Leaf(5e-324, [(0.0, 1.0), (2.0, 3.0)], [0.0, -0.0]),
    ]
    path = tmp_path / "leaves.csv"
    cli._write_leaf_csv(str(path), leaves)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["leaf_id", "leaf_parameter", "point_index", "x", "y", "residual"])
    for leaf_id, leaf in enumerate(leaves):
        for i, (p, res) in enumerate(zip(leaf.points, leaf.point_residuals)):
            writer.writerow([leaf_id, repr(leaf.parameter), i,
                             repr(p[0]), repr(p[1]), repr(res)])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
