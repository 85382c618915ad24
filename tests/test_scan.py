"""The injectivity scan against the per-point 3x3 cell probe it replaced.

``_reference_scan`` is the original loop: it evaluates node by node, probes
the nine cells around each image and stops at the first collision.  The
whole-grid scan must return the same certificate (status, witness pair and
``cells_checked``) and raise the same exception, with the same message,
whatever the map, window, tolerance and separation.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planarinv import gallery
from planarinv.expr import EvaluationError, ExprNode, PlanarMap, parse
from planarinv.involution import Region
from planarinv.linearize import (
    ALPHA,
    COLLISION,
    NO_COLLISION_FOUND,
    InjectivityCertificate,
    injectivity_scan,
    standard_map,
)


def _reference_scan(h, region, scan_n, collision_tol, separation_min):
    if separation_min is None:
        separation_min = 1e-3 * region.diameter
    scan = region.with_grid(scan_n)
    cell = collision_tol
    buckets = {}
    points = []
    images = []
    for p in scan.nodes():
        u, v = h.evaluate(p)
        try:
            ci = math.floor(u / cell)
            cj = math.floor(v / cell)
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"the image {(u, v)} of node {p} has no scan cell "
                             f"of side {cell!r}: {exc}") from exc
        best = None
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for idx in buckets.get((ci + di, cj + dj), ()):
                    iu, iv = images[idx]
                    if math.hypot(u - iu, v - iv) > collision_tol:
                        continue
                    q = points[idx]
                    if math.hypot(p[0] - q[0], p[1] - q[1]) < separation_min:
                        continue
                    if best is None or idx < best:
                        best = idx
        if best is not None:
            return InjectivityCertificate(COLLISION, (points[best], p), len(buckets))
        idx = len(points)
        points.append(p)
        images.append((u, v))
        buckets.setdefault((ci, cj), []).append(idx)
    return InjectivityCertificate(NO_COLLISION_FOUND, None, len(buckets))


class _Counting:
    """Counts ``evaluate`` calls and raises EvaluationError at chosen ones."""

    def __init__(self, h, raise_at=()):
        self.h = h
        self.raise_at = frozenset(raise_at)
        self.calls = 0
        self.raised = False

    def evaluate(self, p):
        call = self.calls
        self.calls += 1
        try:
            if call in self.raise_at:
                raise EvaluationError(f"injected failure at call {call}", p)
            return self.h.evaluate(p)
        except Exception:
            self.raised = True
            raise


class _Nan:
    """An image that is NaN right of the y axis and the origin elsewhere."""

    def evaluate(self, p):
        return (math.nan if p[0] > 0 else 0.0, 0.0)


def _outcome(scan, h, region, scan_n, collision_tol, separation_min):
    try:
        return "ok", scan(h, region, scan_n, collision_tol, separation_min)
    except Exception as exc:  # noqa: BLE001 - any exception must match
        return "raised", type(exc), str(exc)


def _assert_parity(h, region, scan_n, collision_tol, separation_min, raise_at=()):
    reference = _Counting(h, raise_at)
    scanned = _Counting(h, raise_at)
    expected = _outcome(_reference_scan, reference, region, scan_n,
                        collision_tol, separation_min)
    got = _outcome(injectivity_scan, scanned, region, scan_n, collision_tol, separation_min)
    assert got == expected
    # every node is evaluated once, in order, until a call raises
    assert scanned.raised or scanned.calls == scan_n * scan_n
    assert scanned.calls >= reference.calls
    return got


_NAMED_SOURCES = ["(x^2, y)", "(x*y, x*y)", "(0, 0)", "(abs(x), abs(y))",
                  "(1e300*x, y)", "(1e305*x, y)", "(x, y)", "(-x + y^2, -y)",
                  "(sqrt(x), y)", "(1/x, 1/y)", "(x^2 + y^2, 0)", "(x - y^3, -y)"]

_LEAVES = st.one_of(
    st.just(ExprNode("x")),
    st.just(ExprNode("y")),
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e300]).map(
        lambda v: ExprNode("num", value=v)),
)
_TREES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(lambda k, a, b: ExprNode(k, (a, b)),
                  st.sampled_from(("add", "sub", "mul", "div")), sub, sub),
        st.builds(lambda k, a: ExprNode(k, (a,)),
                  st.sampled_from(("neg", "sinh", "sqrt", "abs")), sub),
        st.builds(lambda a, n: ExprNode("pow", (a,), exponent=n), sub, st.integers(0, 4)),
    ),
    max_leaves=8,
)
_MAPS = st.one_of(
    st.sampled_from(_NAMED_SOURCES).map(parse),
    st.builds(lambda a, b: PlanarMap.from_expressions(a, b, "random"), _TREES, _TREES),
)
_WINDOWS = st.builds(
    lambda x0, y0, w, hgt: Region(x0, x0 + w, y0, y0 + hgt),
    st.sampled_from([-5.0, -1.0, -0.5, 0.0, 0.25]) | st.floats(-6.0, 5.0),
    st.sampled_from([-5.0, -1.0, -0.5, 0.0, 0.25]) | st.floats(-6.0, 5.0),
    st.sampled_from([1e-3, 0.1, 1.0, 2.0, 4.0, 10.0]),
    st.sampled_from([1e-3, 0.1, 1.0, 2.0, 4.0, 10.0]),
)
_TOLS = st.sampled_from([1e-6, 1e-2, 0.3, 2.0])
_SEPARATIONS = st.sampled_from([None, 0, 0.05, 0.5])


def _as_h(planar_map, use_standard):
    """The map itself, or its standard map where the origin is fixed."""
    if use_standard:
        try:
            return standard_map(planar_map)
        except (ArithmeticError, ValueError):
            pass
    return planar_map


@settings(max_examples=600, deadline=None)
@given(_MAPS, st.booleans(), _WINDOWS, st.integers(2, 25), _TOLS, _SEPARATIONS,
       st.sets(st.integers(0, 700), max_size=3))
@example(parse("(0, 0)"), False, Region(-1, 1, -1, 1), 11, 1e-6, 0.01, set())
@example(parse("(1e300*x, y)"), True, Region(-1, 1, -1, 1), 5, 1e-6, None, set())
@example(parse("(abs(x), abs(y))"), False, Region(-1, 1, -1, 1), 9, 0.3, 0.5, {40})
def test_scan_matches_reference(planar_map, use_standard, region, scan_n, collision_tol,
                                separation_min, raise_at):
    _assert_parity(_as_h(planar_map, use_standard), region, scan_n, collision_tol,
                   separation_min, raise_at)


def test_pairs_in_one_cell_or_touching_cells_only():
    # scan_n = 2 on the unit square: each row's two images form the only pair
    # near each other, in the same cell or in cells that touch in one way
    cases = {
        "(10*y, 10*y)": (0, 0),  # both images at one point
        "(0.5 + 0.9*x + 10*y, 10*y)": (0, 1),  # (0.5, 0) and (1.4, 0), tol 1
        "(10*y, 0.5 + 0.9*x + 10*y)": (1, 0),
        "(0.9 + 0.2*x + 10*y, 0.9 + 0.2*x + 10*y)": (1, 1),  # across a corner
        "(0.9 + 0.2*x + 10*y, 1.1 - 0.2*x + 10*y)": (1, -1),
        # the first row's cells sit at both ends of the span of cj
        "(0.9 + 0.2*x, 1.1 - 0.2*x + 10*y)": (1, -1),
    }
    for source, touch in cases.items():
        got = _assert_parity(parse(source), Region(0, 1, 0, 1), 2, 1.0, 0.5)
        assert got[1].witness_pair == ((0.0, 0.0), (1.0, 0.0)), (source, touch)


def test_injected_failure_before_and_after_a_collision():
    fold = parse("(abs(x), abs(y))")  # first collision: node 5 meets node 3
    window = Region(-1, 1, -1, 1)
    clean = _assert_parity(fold, window, 9, 1e-6, None)
    assert clean[1].status == COLLISION
    assert clean[1].witness_pair == ((-0.25, -1.0), (0.25, -1.0))
    for raise_at in ({3}, {5}, {0, 6}):
        assert _assert_parity(fold, window, 9, 1e-6, None, raise_at)[0] == "raised"
    after = _assert_parity(fold, window, 9, 1e-6, None, {9, 50})
    assert after == clean


def test_cell_errors_end_the_scan_at_their_node():
    # h = (x + 1e600 x)/2 is infinite off the y axis: floor(inf) fails at node 0
    got = _assert_parity(standard_map(parse("(1e300*x, y)")), Region(-1, 1, -1, 1),
                         5, 1e-6, None)
    assert got[:2] == ("raised", ValueError)
    assert "node (-1.0, -1.0) has no scan cell of side 1e-06" in got[2]
    # a collision before the first overflowing node is still reported
    got = _assert_parity(parse("(0*x + 1e305*y, 0)"), Region(-1, 1, 0, 1), 7, 1e-6, 0.1)
    assert got[1].status == COLLISION
    # floor(nan) fails too; here at the first node with x > 0
    nan_right = _Nan()
    got = _assert_parity(nan_right, Region(0.5, 1, 0, 1), 5, 1e-6, 0.5)
    assert got[:2] == ("raised", ValueError)
    got = _assert_parity(nan_right, Region(-1, 1, 0, 1), 5, 1e-6, 0.5)
    assert got[1].witness_pair == ((-1.0, 0.0), (-0.5, 0.0))


def test_scan_matches_reference_on_every_gallery_entry():
    for name in gallery.list_entries():
        entry = gallery.get(name)
        got = _assert_parity(standard_map(entry.map), entry.window, 201, 1e-6, None)
        assert got[0] == "ok"
        assert got[1].status == (COLLISION if name == "C" else NO_COLLISION_FOUND)


@pytest.mark.parametrize("collision_tol, separation_min", [
    (0.0, None), (-0.0, None), (-1e-6, None), (math.inf, None), (math.nan, None),
    (1e-6, -0.5), (1e-6, -math.inf), (1e-6, math.inf), (1e-6, math.nan),
])
def test_scan_rejects_a_tolerance_that_is_not_finite_and_positive(collision_tol, separation_min):
    h = _Counting(parse("(x, y)"))
    with pytest.raises(ValueError):
        injectivity_scan(h, Region(-1, 1, -1, 1), 5, collision_tol, separation_min)
    assert h.calls == 0


def test_images_on_one_projection_line():
    # u + ALPHA*v is 0 at every node, so every node is a candidate
    for t in ("x + y", "x + 1.4142135623730951*y", "x*x - y"):
        line = parse(f"({ALPHA!r}*({t}), -({t}))")
        for region, scan_n in ((Region(-1, 1, -1, 1), 25), (Region(0, 3, -2, 0), 40)):
            images = map(line.evaluate, region.with_grid(scan_n).nodes())
            assert {u + v * ALPHA for u, v in images} == {0.0}
            for collision_tol in (1e-6, 1e-2, 0.3):
                for separation_min in (None, 0, 0.5):
                    _assert_parity(line, region, scan_n, collision_tol, separation_min)


def test_cells_whose_quotient_overflows():
    window, upper = Region(-1, 1, -1, 1), Region(-1, 1, 0, 1)
    cases = [
        ("(1e303*x, y)", window, 1e-6, "raised"),  # 1e303/1e-6 overflows at node 0
        ("(1e303*y, x)", upper, 1e-6, "raised"),  # at the first node of row 1
        ("(1e303*y, abs(x))", upper, 1e-6, COLLISION),  # a collision in row 0 comes first
        ("(1e303*x, y)", window, 2.0, COLLISION),  # cells up to 5e302: no overflow
        ("(1e303*x, 1e303*y)", window, 2.0, NO_COLLISION_FOUND),
        ("(1.7e308*x, 1.7e308*y)", window, 2.0, NO_COLLISION_FOUND),  # u + ALPHA*v overflows
        ("(1.7e308*x, -1.7e308*x)", window, 2.0, COLLISION),
    ]
    for source, region, collision_tol, expected in cases:
        got = _assert_parity(parse(source), region, 9, collision_tol, None)
        assert (got[0] if got[0] == "raised" else got[1].status) == expected, source


def test_images_two_tolerances_apart_across_a_cell_boundary():
    # scan_n = 2 on the unit square: row 0 maps to the images b and b + d,
    # row 1 far away; the pair collides iff |d| <= tol
    tol = 0.25
    below = math.nextafter(2 * tol, 0.0)
    for b in (0.0, 0.125, 0.2, -0.25, 0.3, 1e-17):
        for du, dv in ((2 * tol, 2 * tol), (2 * tol, -2 * tol), (2 * tol, 0.0),
                       (below, below), (below, -below), (tol, 0.0), (0.0, -tol)):
            source = f"({b!r} + {du!r}*x + 10*y, {b!r} + {dv!r}*x + 10*y)"
            got = _assert_parity(parse(source), Region(0, 1, 0, 1), 2, tol, 0.5)
            collides = math.hypot(du, dv) <= tol
            assert (got[1].status == COLLISION) is collides, source
