import math

import pytest

from planarinv import involution
from planarinv.expr import parse
from planarinv.gallery import get
from planarinv.involution import (
    CURVE,
    FIX_MINUS,
    FIX_PLUS,
    ORIENTATION_PRESERVING,
    ORIENTATION_REVERSING,
    UNCLASSIFIED,
    BasePointError,
    DegenerateJacobianError,
    GridSample,
    Region,
    classify_fixed_point,
    find_fixed_points,
    fix_origin,
    linear_part,
    orientation,
    polish_fixed_point,
    verify_involution,
)
from planarinv.linalg2 import Mat2


def test_region_validation():
    with pytest.raises(ValueError):
        Region(1, 0, 0, 1)
    with pytest.raises(ValueError):
        Region(0, 1, 0, 1, grid_n=1)
    r = Region(-5, 5, -5, 5, 41)
    assert r.diameter == pytest.approx(math.hypot(10, 10))
    nodes = list(r.nodes())
    assert len(nodes) == 41 * 41
    assert nodes[0] == (-5.0, -5.0) and nodes[-1] == (5.0, 5.0)
    for bounds in ((-math.inf, 5, -5, 5), (-5, math.inf, -5, 5),
                   (-5, 5, -math.inf, 5), (-5, 5, -5, math.inf)):
        with pytest.raises(ValueError, match="window bounds must be finite"):
            Region(*bounds)


def test_verify_involution_exact_shear():
    check = verify_involution(GridSample(parse("(x - y^3, -y)"), Region(-5, 5, -5, 5)), 1e-9)
    assert check.passed and check.max_residual == 0.0


def test_verify_involution_rejects_translation():
    check = verify_involution(GridSample(parse("(x + 1, y)"), Region(-5, 5, -5, 5)), 1e-9)
    assert not check.passed
    assert check.max_residual == pytest.approx(2.0)  # at the origin, 2/(1+0)


def test_verify_involution_sinh_conjugated():
    entry = get("B")
    check = verify_involution(GridSample(entry.map, Region(-3, 3, -3, 3)), 1e-9)
    assert check.passed


def test_verify_involution_polynomially_conjugated_flip():
    # flip (x, y) -> (x, -y) seen through the coordinate change (x + y^3, y)
    check = verify_involution(GridSample(parse("(x + 2*y^3, -y)"), Region(-3, 3, -3, 3)), 1e-9)
    assert check.passed and check.max_residual <= 1e-9


@pytest.mark.parametrize("name,kind", [
    ("A1", ORIENTATION_REVERSING),
    ("A2", ORIENTATION_PRESERVING),
    ("A3", ORIENTATION_REVERSING),
    ("A4", ORIENTATION_PRESERVING),
    ("identity", ORIENTATION_PRESERVING),
])
def test_orientation_classes(name, kind):
    entry = get(name)
    o = orientation(GridSample(entry.map, entry.window))
    assert o.kind == kind
    assert o.min_abs_det > 0.0


def test_orientation_rejects_degenerate_jacobian():
    # det changes sign across x = 0, and vanishes there
    with pytest.raises(DegenerateJacobianError):
        orientation(GridSample(parse("(x^2, y)"), Region(-1, 1, -1, 1, 11)))


def test_orientation_determinant_test_is_relative_to_scale():
    # det = 1e-14 everywhere: small in absolute terms, but the map is a scaling
    o = orientation(GridSample(parse("(1e-7*x, 1e-7*y)"), Region(-1, 1, -1, 1, 11)))
    assert o.kind == ORIENTATION_PRESERVING
    assert o.min_abs_det == pytest.approx(1e-14)
    # det = -1 exactly, beside a Jacobian entry of 1e7
    o = orientation(GridSample(parse("(-x, y + 1e7*x)"), Region(-1, 1, -1, 1, 11)))
    assert o.kind == ORIENTATION_REVERSING
    assert o.min_abs_det == 1.0
    o = orientation(GridSample(parse("(-x, y + x^5)"), Region(-25, 25, -25, 25, 11)))
    assert o.kind == ORIENTATION_REVERSING
    with pytest.raises(DegenerateJacobianError, match="vanishes"):
        orientation(GridSample(parse("(x^2, y)"), Region(-1, 1, -1, 1, 11)))
    with pytest.raises(DegenerateJacobianError, match="vanishes"):
        orientation(GridSample(parse("(2, 3)"), Region(-1, 1, -1, 1, 11)))


def test_fixed_points_isolated_minus():
    scan = find_fixed_points(GridSample(get("A2").map, Region(-4, 4, -4, 4)))
    assert scan.kind == "point"
    assert len(scan.points) == 1
    fp = scan.points[0]
    assert fp.location == pytest.approx((0.0, 0.0), abs=1e-9)
    assert fp.classification == FIX_MINUS


def test_fixed_set_kind_comes_from_the_linear_part():
    # Dphi(0) decides the kind, however many roots the window holds
    window = Region(-5, 5, -5, 5, 15)
    assert find_fixed_points(GridSample(get("A2").map, window)).kind == "point"
    assert find_fixed_points(GridSample(get("A1").map, window)).kind == CURVE
    assert find_fixed_points(GridSample(parse("(x, y)"), window)).kind == "all"
    # a window off the fixed set: no root, the same kind
    scan = find_fixed_points(GridSample(get("A1").map, Region(1, 4, 1, 4, 15)))
    assert (scan.kind, scan.points) == (CURVE, [])


def test_fixed_points_curve_on_axis():
    scan = find_fixed_points(GridSample(get("A1").map, Region(-5, 5, -5, 5)))
    assert scan.kind == CURVE
    assert len(scan.points) > 2
    assert all(abs(fp.location[1]) <= 1e-8 for fp in scan.points)
    assert all(fp.classification == CURVE for fp in scan.points)


def test_fixed_points_minus_identity():
    scan = find_fixed_points(GridSample(parse("(-x, -y)"), Region(-5, 5, -5, 5)))
    assert [fp.classification for fp in scan.points] == [FIX_MINUS]
    assert scan.points[0].location == pytest.approx((0.0, 0.0), abs=1e-12)


def test_fixed_points_polished_to_tolerance():
    for name in ("A1", "A2", "A3", "B"):
        entry = get(name)
        scan = find_fixed_points(GridSample(entry.map, entry.window))
        for fp in scan.points:
            fx, fy = entry.map.evaluate(fp.location)
            assert math.hypot(fx - fp.location[0], fy - fp.location[1]) <= 1e-9


def test_classify_fixed_point():
    assert classify_fixed_point(parse("(x, y)"), (2.0, 3.0)) == FIX_PLUS
    assert classify_fixed_point(get("A4").map, (0.0, 0.0)) == FIX_MINUS
    # orientation-reversing: the +/-I dichotomy does not apply
    assert classify_fixed_point(get("A1").map, (1.0, 0.0)) == UNCLASSIFIED


def test_fix_origin_keeps_a_map_fixing_the_origin():
    m = get("A1").map
    assert fix_origin(m) == (m, None)
    assert linear_part(m) == Mat2(1.0, -0.0, 0.0, -1.0)


def test_fix_origin_recenters_at_the_fixed_point():
    # un-recentered A2 with n = 0: fixes (0.5, 0) only
    m = parse("(-x + 1, -y)")
    with pytest.raises(BasePointError, match=r"\|phi\(0\)\| = 1\.000e\+00"):
        linear_part(m)
    shifted, offset = fix_origin(m)
    assert offset == pytest.approx((0.5, 0.0), abs=1e-9)
    assert shifted.evaluate((0.0, 0.0)) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert linear_part(shifted) == Mat2(-1.0, 0.0, 0.0, -1.0)
    assert fix_origin(shifted) == (shifted, None)


def test_fix_origin_recenters_a_reflection_at_any_fixed_point():
    # (1, 0) is neither FixPlus nor FixMinus: the map reverses orientation
    shifted, offset = fix_origin(parse("(2 - x, y)"))
    assert offset == (1.0, 0.0)
    assert shifted.evaluate((0.3, -0.7)) == pytest.approx((-0.3, -0.7), abs=1e-15)


def test_fix_origin_leaves_a_fixed_point_free_map():
    m = parse("(x + 1, y)")
    assert fix_origin(m) == (m, None)
    with pytest.raises(BasePointError):
        linear_part(m)


def test_fixed_point_dedup_matches_pairwise_merge(monkeypatch):
    # the dedup against a pairwise merge of the roots Newton returned, in order
    corner = 1000 * 1e-6 * Region(-5, 5, -5, 5).diameter
    shifted, offset = fix_origin(parse(f"({2 * corner!r} - x, {2 * corner!r} - y)"))
    assert offset == pytest.approx((corner, corner))
    cases = (
        ("(x, -y)", Region(-2, 2, -2, 2, 21)),  # fixed x-axis: each root found 3 times
        ("(x, y)", Region(-1, 1, -1, 1, 11)),  # every seed is its own root
        ("(-x + y^2, -y)", Region(-3, 3, -3, 3, 15)),  # one root, reached with rounding
        (get("B").map, get("B").window.with_grid(15)),
        # the point reflection about (c, c), recentered at its fixed point
        (shifted, Region(-5, 5, -5, 5, 21)),
        # the fixed point is a corner of the dedup cells, and Newton stops
        # within its tolerance on each side of it, in all four cells
        ("(-x + 3e-9*(x*x - y*y), -y + 3e-9*x*y)", Region(-5, 5, -5, 5, 21)),
    )
    roots = []  # what each polish_fixed_point call in find_fixed_points returns
    monkeypatch.setattr(involution, "polish_fixed_point", lambda *args, **kwargs:
                        roots.append(polish_fixed_point(*args, **kwargs)) or roots[-1])
    for source, region in cases:
        m = parse(source) if isinstance(source, str) else source
        radius = 1e-6 * region.diameter
        roots.clear()
        scan = find_fixed_points(GridSample(m, region))
        expected = []
        for root in roots:
            if root is not None and region.contains(root) and all(
                    math.hypot(root[0] - k[0], root[1] - k[1]) > radius for k in expected):
                expected.append(root)
        assert roots and [fp.location for fp in scan.points] == expected


def test_fixed_points_lie_in_the_window():
    # B's Newton also converges to points of its fixed curve far outside the
    # window, such as (-104.8, -104.8)
    entry = get("B")
    scan = find_fixed_points(GridSample(entry.map, entry.window))
    assert scan.points and all(entry.window.contains(fp.location) for fp in scan.points)
    # A2 fixes only the origin, outside this window
    scan = find_fixed_points(GridSample(get("A2").map, Region(1, 4, 1, 4)))
    assert (scan.kind, scan.points) == ("point", [])
