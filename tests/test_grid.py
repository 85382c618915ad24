"""The whole-grid evaluation of h and the float fixed-point Newton against
the per-node code they replaced.

``StandardMap.evaluate_grid`` must return, bit for bit (compared by
``repr``, so signed zeros count), the values that ``h.evaluate`` gives at
every node before the first node where it fails, and that node's exception
with its type and message.  ``injectivity_scan`` on an unwrapped
``StandardMap`` takes that grid path, and must still return what
``_reference_scan`` of ``tests/test_scan.py`` returns.  ``polish_fixed_point``
must equal the ``Mat2`` Newton loop it replaced, kept below as the reference.
"""

import math
from decimal import Decimal

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_scan import (
    _LEAVES,
    _MAPS,
    _SEPARATIONS,
    _TOLS,
    _WINDOWS,
    _outcome,
    _reference_scan,
)

from planarinv import gallery, linearize
from planarinv.expr import _KERNEL_NAMES, EvaluationError, ExprNode, PlanarMap, compile_pair, parse
from planarinv.involution import (
    GridSample,
    Region,
    classify_fixed_point,
    find_fixed_points,
    polish_fixed_point,
)
from planarinv.linalg2 import IDENTITY, MINUS_IDENTITY, Mat2, solve_min_norm
from planarinv.linearize import StandardMap, injectivity_scan, standard_map

FLIP_Y = Mat2(1.0, 0.0, 0.0, -1.0)


# ----------------------------------------------------------------------
# strategies: test_scan's trees, with -0.0, 1e999 and NaN among the leaves
# ----------------------------------------------------------------------

_GRID_LEAVES = _LEAVES | st.sampled_from([-0.0, 1e999, math.nan]).map(
    lambda v: ExprNode("num", value=v))
_GRID_TREES = st.recursive(
    _GRID_LEAVES,
    lambda sub: st.one_of(
        st.builds(lambda k, a, b: ExprNode(k, (a, b)),
                  st.sampled_from(("add", "sub", "mul", "div")), sub, sub),
        st.builds(lambda k, a: ExprNode(k, (a,)),
                  st.sampled_from(("neg", "sinh", "sqrt", "abs")), sub),
        st.builds(lambda a, n: ExprNode("pow", (a,), exponent=n), sub, st.integers(0, 4)),
    ),
    max_leaves=8,
)
_GRID_MAPS = _MAPS | st.builds(
    lambda a, b: PlanarMap.from_expressions(a, b, "random"), _GRID_TREES, _GRID_TREES)
_ENTRY = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]) | st.floats(-3.0, 3.0)
_LINEAR = st.one_of(
    st.sampled_from([IDENTITY, MINUS_IDENTITY, FLIP_Y, Mat2(-1.0, -0.0, -0.0, -1.0)]),
    st.builds(Mat2, _ENTRY, _ENTRY, _ENTRY, _ENTRY),
)
_COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-6.0, 6.0)
_AXIS = st.lists(_COORD, min_size=1, max_size=12)


def _per_node(h, xs, ys):
    """evaluate_grid's triple from h.evaluate, node by node."""
    us, vs = [], []
    for y in ys:
        for x in xs:
            try:
                u, v = h.evaluate((x, y))
            except Exception as exc:  # noqa: BLE001 - any exception must match
                return us, vs, exc
            us.append(u)
            vs.append(v)
    return us, vs, None


def _described(triple):
    us, vs, error = triple
    return repr(us), repr(vs), None if error is None else (type(error), str(error))


def _assert_grid_parity(h, xs, ys):
    got = _described(h.evaluate_grid(xs, ys))
    assert got == _described(_per_node(h, xs, ys))
    return got


# ----------------------------------------------------------------------
# StandardMap.evaluate_grid
# ----------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(_GRID_MAPS, _LINEAR, _AXIS, _AXIS)
@example(parse("(2, -y)"), MINUS_IDENTITY, [0.0, -0.0, 1.0], [-0.0, 3.0])
@example(parse("(x + 0*y^999, -y)"), FLIP_Y, [3.0, 4.0], [3.0, 5.0])
def test_evaluate_grid_matches_evaluate(planar_map, linear, xs, ys):
    _assert_grid_parity(StandardMap(planar_map, linear), xs, ys)


def test_evaluate_grid_stops_where_evaluate_fails():
    xs = [-1.0, -0.5, 0.5, 1.0, 2.0]
    ys = [1.0, 2.0, 3.0]
    cases = {
        "(x, y)": None,
        "(1/(x - 0.5), y)": (2, "division by zero"),  # raises mid-row
        "(x, 1/(y - 2))": (5, "division by zero"),  # raises at the start of row 1
        "(sqrt(x), y)": (0, "math domain error"),
        "(sqrt(2.5 - y), x)": (10, "math domain error"),
        "(1e308*x, y)": (4, "non-finite map value"),  # goes non-finite mid-row
        "(x, 1e308*(y - 1)*x)": (9, "non-finite map value"),
        "(x, -y*1e999*0)": (0, "non-finite map value"),  # inf*0 is NaN
        "(5e307*x, 0)": None,  # finite base values, h overflows to inf at x = 2
    }
    for source, failure in cases.items():
        h = StandardMap(parse(source), Mat2(2.0, 0.0, 0.0, -0.0))
        us, vs, error = h.evaluate_grid(xs, ys)
        _assert_grid_parity(h, xs, ys)
        if failure is None:
            assert error is None and len(us) == len(vs) == 15, source
        else:
            assert isinstance(error, EvaluationError), source
            assert len(us) == len(vs) == failure[0] and failure[1] in str(error), source


def test_evaluate_grid_converts_constant_components_with_float():
    # a literal that is a number but not a float: evaluate converts the
    # component with float(), so 0.0 * u never meets the Decimal itself
    constant = ExprNode("num", value=Decimal("2.5"))
    h = StandardMap(PlanarMap.from_expressions(constant, ExprNode("y"), "decimal"), FLIP_Y)
    us, vs, error = _assert_grid_parity(h, [0.0, 1.0], [2.0])
    assert error is None and us == repr([1.25, 1.75])


def test_evaluate_grid_on_native_maps():
    entry = gallery.get("C")
    h = standard_map(entry.map)
    scan = entry.window.with_grid(61)
    got = _assert_grid_parity(h, scan.xs(), scan.ys())
    assert got[2] is None
    xs, ys = [-1.0, 0.0, 1.0], [0.0, 1.0]
    natives = {
        "raises": lambda x, y: (1.0 / x, y),
        "non-finite": lambda x, y: (x * 1e308 * 10.0 if x > 0 else x, y),
        "not a pair": lambda x, y: (x, y, x) if y > 0 else (x, y),
        "int values": lambda x, y: (int(x), -y),
    }
    for name, fn in natives.items():
        h = StandardMap(PlanarMap.from_function(fn, name), MINUS_IDENTITY)
        _assert_grid_parity(h, xs, ys)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(gallery.list_entries()), _AXIS, _AXIS)
def test_evaluate_grid_matches_evaluate_on_gallery(name, xs, ys):
    _assert_grid_parity(standard_map(gallery.get(name).map), xs, ys)


def test_kernel_identifiers_stay_interned():
    # every identifier of the generated kernels is held in _KERNEL_NAMES or
    # lives as long as the interpreter (one-letter names, builtins, list.append)
    for source in ("(x - y^3 + 2, sinh(y)/x)", "(1, abs(asinh(x)) + sqrt(y))"):
        planar_map = parse(source)
        kernels = planar_map._kernels or planar_map._build_kernels()
        assert len(kernels) == 3
        assert len(compile_pair(*planar_map.asts)) == 2
        for kernel in kernels:
            code = kernel.__code__
            names = set(code.co_varnames + code.co_names + code.co_freevars)
            assert names - set(_KERNEL_NAMES) <= {
                "x", "y", "u", "v", "_", "float", "range", "abs", "ZeroDivisionError",
                "append"}, source


# ----------------------------------------------------------------------
# injectivity_scan on the grid path
# ----------------------------------------------------------------------

def _grid_h(planar_map, linear):
    """The map's standard map where the origin is fixed, else h over ``linear``."""
    try:
        return standard_map(planar_map)
    except (ArithmeticError, ValueError):
        return StandardMap(planar_map, linear)


def _assert_scan_parity(h, region, scan_n, collision_tol, separation_min):
    assert hasattr(h, "evaluate_grid")
    got = _outcome(injectivity_scan, h, region, scan_n, collision_tol, separation_min)
    assert got == _outcome(_reference_scan, h, region, scan_n, collision_tol, separation_min)
    return got


@settings(max_examples=400, deadline=None)
@given(_GRID_MAPS, _LINEAR, _WINDOWS, st.integers(2, 25), _TOLS, _SEPARATIONS)
@example(parse("(abs(x), abs(y))"), IDENTITY, Region(-1, 1, -1, 1), 9, 1e-6, None)
@example(parse("(1e300*x, y)"), IDENTITY, Region(-1, 1, -1, 1), 5, 1e-6, None)
def test_unwrapped_scan_matches_reference(planar_map, linear, region, scan_n,
                                          collision_tol, separation_min):
    _assert_scan_parity(_grid_h(planar_map, linear), region, scan_n, collision_tol,
                        separation_min)


def test_unwrapped_scan_matches_reference_on_every_gallery_entry():
    for name in gallery.list_entries():
        entry = gallery.get(name)
        got = _assert_scan_parity(standard_map(entry.map), entry.window, 201, 1e-6, None)
        assert got[1].status == ("Collision" if name == "C" else "NoCollisionFound"), name


def test_scan_evaluates_the_grid_once(monkeypatch):
    calls = {"grid": 0, "evaluate": 0}
    grid, evaluate = StandardMap.evaluate_grid, StandardMap.evaluate

    def counting_grid(self, xs, ys):
        calls["grid"] += 1
        return grid(self, xs, ys)

    def counting_evaluate(self, p):
        calls["evaluate"] += 1
        return evaluate(self, p)

    monkeypatch.setattr(linearize.StandardMap, "evaluate_grid", counting_grid)
    monkeypatch.setattr(linearize.StandardMap, "evaluate", counting_evaluate)
    injectivity_scan(standard_map(gallery.get("B").map), gallery.get("B").window, 51)
    assert calls == {"grid": 1, "evaluate": 0}
    # a failing node is evaluated once more, for its exception
    h = StandardMap(parse("(1/(x - 0.5), y)"), IDENTITY)
    assert _outcome(injectivity_scan, h, Region(0, 1, 0, 1), 5, 1e-6, None)[:2] == \
        ("raised", EvaluationError)
    assert calls == {"grid": 2, "evaluate": 1}


# ----------------------------------------------------------------------
# the fixed-point Newton on floats
# ----------------------------------------------------------------------

def _ref_polish(planar_map, seed, tol=1e-9, max_iter=60):
    p = (float(seed[0]), float(seed[1]))
    for _ in range(max_iter + 1):
        try:
            (fx, fy), jac = planar_map.evaluate_with_jacobian(p)
        except EvaluationError:
            return None
        rx, ry = fx - p[0], fy - p[1]
        if math.hypot(rx, ry) <= tol:
            return p
        step = solve_min_norm(jac - IDENTITY, (-rx, -ry))
        nx, ny = p[0] + step[0], p[1] + step[1]
        if not (math.isfinite(nx) and math.isfinite(ny)) or math.hypot(nx, ny) > 1e9:
            return None
        if step == (0.0, 0.0):
            return None
        p = (nx, ny)
    return None


def _assert_polish_parity(planar_map, seed, tol=1e-9, max_iter=60):
    got = repr(polish_fixed_point(planar_map, seed, tol, max_iter))
    assert got == repr(_ref_polish(planar_map, seed, tol, max_iter))
    return got


@settings(max_examples=400, deadline=None)
@given(_GRID_MAPS, st.tuples(_COORD, _COORD), st.sampled_from([1e-9, 1e-3, 0.0]),
       st.integers(0, 60))
@example(parse("(-x + y^2, -y)"), (1.0, 1.0), 1e-9, 60)  # a curve of fixed points
@example(parse("(x, y)"), (-0.0, 2.0), 1e-9, 60)  # rank-zero Newton matrix
def test_polish_matches_mat2_newton(planar_map, seed, tol, max_iter):
    _assert_polish_parity(planar_map, seed, tol, max_iter)


def test_polish_matches_mat2_newton_on_gallery():
    for name in gallery.list_entries():
        entry = gallery.get(name)
        converged = 0
        for seed in entry.window.with_grid(9).nodes():
            converged += _assert_polish_parity(entry.map, seed) != "None"
        assert converged > 0, name


# ----------------------------------------------------------------------
# one Jacobian per root
# ----------------------------------------------------------------------

def test_find_fixed_points_takes_one_jacobian_per_root(monkeypatch):
    calls = []
    original = PlanarMap.evaluate_with_jacobian

    def counting(self, p):
        calls.append(p)
        return original(self, p)

    identity = gallery.get("identity").map
    region = Region(-1.0, 1.0, -1.0, 1.0, 9)
    monkeypatch.setattr(PlanarMap, "evaluate_with_jacobian", counting)
    scan = find_fixed_points(GridSample(identity, region))
    assert len(scan.points) == 81 and scan.kind == "all"
    assert calls == [point.location for point in scan.points]
    monkeypatch.undo()
    for name in gallery.list_entries():
        entry = gallery.get(name)
        for point in find_fixed_points(GridSample(entry.map, entry.window.with_grid(11))).points:
            cls = classify_fixed_point(entry.map, point.location)
            assert point.classification in (cls, "curve"), name
            assert point.jacobian == original(entry.map, point.location)[1], name
