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
from matrices import value_and_jacobian
from test_kernels import TRAPS, dag_pairs
from test_scan import (
    _LEAVES,
    _MAPS,
    _SEPARATIONS,
    _TOLS,
    _WINDOWS,
    _outcome,
    _reference_scan,
)

from planarinv import expr, gallery, linearize
from planarinv.expr import _KERNEL_NAMES, EvaluationError, ExprNode, PlanarMap, parse
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
_GRID_MAPS = st.one_of(
    _MAPS,
    st.builds(lambda a, b: PlanarMap.from_expressions(a, b, "random"), _GRID_TREES, _GRID_TREES),
    dag_pairs(_GRID_LEAVES, ("neg", "sinh", "sqrt", "abs"), st.integers(0, 12)).map(
        lambda pair: PlanarMap.from_expressions(*pair, "dag")),
)
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
@example(PlanarMap.from_expressions(*TRAPS[0], "trap"), FLIP_Y, [0.5, -0.0, 2.0], [-1.5, 3.0])
@example(PlanarMap.from_expressions(*TRAPS[1], "trap"), Mat2(0.5, -1.0, 2.0, -0.0),
         [0.5, 2.0], [-1.0000001, -0.0, 1e30])
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


def _first_failure(h, xs, ys):
    """The row-major index of the first node where h.evaluate fails, or None."""
    us, _, error = _per_node(h, xs, ys)
    return None if error is None else len(us)


def test_hoisted_grid_stops_at_the_same_node():
    # the grid kernel runs x-only values once per column before the rows,
    # y-only values once per row and constants once; it must still stop
    # at the first failing node in row-major order, with evaluate's error
    xs = [-1.0, -0.5, 0.0, 0.5, 800.0]
    ys = [1.0, 0.25, -1.0, 4.0]
    cases = {
        "(1/x + y, y)": 2,  # x-only, raises at the inner column 2 of row 0
        "(x + sqrt(y), -y)": 10,  # y-only, raises at the middle row 2
        "(1/x + sqrt(y), y)": 2,  # both: column 2 of row 0 comes before row 2
        "(1/x + sqrt(y + 1.5), y)": 2,
        "(1/x + sqrt(y - 2), y)": 0,  # both: row 0 fails at its first node
        "(x*y + 1/x, sqrt(y))": 2,  # x-only and y-only values read at the nodes
        "(1/(x*y + 0.5) + 1/x, y)": 1,  # a node value fails before the column
        "(x + sqrt(-1), y)": 0,  # a constant subtree raises
        "(sqrt(-1), y)": 0,  # a constant component raises
        "(2^3/0, x)": 0,
        "(sinh(x), y)": 4,  # x-only component: math range error at x = 800
        "(x, 1e306*x*y)": 4,  # goes to inf at the last column of row 0
        "(1e306*x, y)": 4,  # x-only component that goes to inf
        "(x + 0*y^999, -y)": 15,  # 4^999 overflows at row 3: 0*inf is NaN
    }
    for source, failure in cases.items():
        h = StandardMap(parse(source), Mat2(1.0, 0.5, -0.0, -1.0))
        _, _, error = _assert_grid_parity(h, xs, ys)
        assert _first_failure(h, xs, ys) == failure, source
        assert error is not None and error[0] is EvaluationError, source
    # an empty axis has no node to fail, even where a constant raises
    for source in ("(1/x + y, y)", "(sqrt(-1), y)", "(x, sqrt(y))"):
        for axes in (([], ys), (xs, []), ([], [])):
            assert _assert_grid_parity(StandardMap(parse(source), IDENTITY), *axes)[2] is None


def test_hoisted_grid_takes_each_component_at_its_level():
    # u and v each a constant, an x-only or a y-only value, or both
    components = ("2", "-0.0", "sinh(x)", "1/x", "y^3", "sqrt(y)", "x*y")
    xs = [-2.0, -0.0, 0.0, 1.5, 3.0]
    ys = [2.0, 0.0, -0.0, -1.0]
    for u in components:
        for v in components:
            for linear in (IDENTITY, MINUS_IDENTITY, Mat2(0.0, -1.0, -1.0, 0.0)):
                _assert_grid_parity(StandardMap(parse(f"({u}, {v})"), linear), xs, ys)


def test_evaluate_grid_finds_the_first_failure_past_non_finite_nodes():
    # the grid kernel runs on past a node where phi is not finite, so
    # evaluate_grid must find the first failing node from the lists; each
    # case is checked under linear parts other than the identity, where h's
    # own operations run at the level of u and v
    xs = [2.0, 1.0, -0.5, 0.0, 0.5]
    ys = [1.0, 0.5, -2.0]
    cases = {
        "(x, -y)": None,  # u on x alone, v on y alone
        "(x, y)": None,
        "(2, y)": None,  # a constant u
        "(1/x, y)": 3,  # fails at a column-level value, in row 0
        "(x, 1/(y - 0.5))": 5,  # fails at a row-level value, at the start of row 1
        "(x, 1/(x*y + 1))": 14,  # fails at a node-level value
        "(1e308*x*y, y)": 0,  # non-finite at a node-level value
        "(1e308*x*y, 1/(x*y - 1))": 0,  # non-finite at node 0, raises at node 1
        "(1/(x*y + 1), x*y*y/4*1e308)": 10,  # non-finite at node 10, raises at node 14
        "(1/(x*y - 1), x*y*y/4*1e308)": 1,  # raises at node 1, non-finite at node 10
    }
    linears = (Mat2(1.0, 1.0, 0.0, 1.0), Mat2(2.0, 0.5, -0.0, -1.0), MINUS_IDENTITY, FLIP_Y)
    for source, failure in cases.items():
        for linear in linears:
            h = StandardMap(parse(source), linear)
            error = _assert_grid_parity(h, xs, ys)[2]
            assert _first_failure(h, xs, ys) == failure, (source, linear)
            assert (error is None) is (failure is None), (source, linear)
    # h overflows to inf at a finite phi: the value stays, with no error
    h = StandardMap(parse("(1e308*x, 1e308*y)"), Mat2(1.0, 1.0, 0.0, 1.0))
    us, _, error = _assert_grid_parity(h, [1.0, 1.5], [-1.0, 1.0])
    assert error is None and us == repr([0.5, 2.5e307, math.inf, math.inf])
    # and where both components overflow at a finite phi
    h = StandardMap(parse("(1e308*x, 1e308*y)"), Mat2(1.0, 1.0, 1.0, 1.0))
    us, vs, error = _assert_grid_parity(h, [1.0, 1.5], [-1.0, 1.0])
    assert error is None and us == repr([0.5, 2.5e307, math.inf, math.inf])
    assert vs == repr([-0.5, 2.5e307, math.inf, math.inf])


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
    # a quotient that raises at x = 0, and a value that is inf where x > 0
    for source in ("(1/x, y)", "(x + (x + abs(x))*1e308*10, y)"):
        _assert_grid_parity(StandardMap(parse(source), MINUS_IDENTITY), xs, ys)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(gallery.list_entries()), _AXIS, _AXIS)
def test_evaluate_grid_matches_evaluate_on_gallery(name, xs, ys):
    _assert_grid_parity(standard_map(gallery.get(name).map), xs, ys)


def test_kernel_identifiers_stay_interned():
    # every identifier of the generated kernels is held in _KERNEL_NAMES or
    # lives as long as the interpreter (one-letter names, builtins, list.append)
    for source in ("(x - y^3 + 2, sinh(y)/x)", "(1, abs(asinh(x)) + sqrt(y))"):
        planar_map = parse(source)
        kernels = planar_map._kernels
        assert len(kernels) == 3
        for kernel in kernels:
            code = kernel.__code__
            names = set(code.co_varnames + code.co_names + code.co_freevars)
            assert names - set(_KERNEL_NAMES) <= {
                "x", "y", "u", "v", "_", "float", "range", "abs", "ZeroDivisionError",
                "append"}, source


def _kernel_identifiers(planar_map):
    kernels = planar_map._kernels
    return {name for kernel in kernels
            for name in kernel.__code__.co_varnames + kernel.__code__.co_names
            + kernel.__code__.co_freevars}


def test_kernel_identifiers_of_a_map_with_many_literals_are_held():
    # 40 distinct literals, more than any fixed pool of parameter names held
    terms = " + ".join(f"{1 + i / 100!r}*x^{i % 5 + 1}" for i in range(40))
    planar_map = parse(f"({terms}, -y)")
    names = _kernel_identifiers(planar_map)
    assert {f"c{i}" for i in range(40)} <= names
    assert names - set(_KERNEL_NAMES) == set()


def test_maps_of_a_compiled_shape_hold_no_new_identifier():
    templates = ("(x + {a}*y^3 - {b}*y^5, -y)",
                 "(sinh(x)*{a} + y/{b}, asinh(y - {a}*x^2))",
                 "(abs(x)^3*{a} - sqrt(y*y + {b}), cos(x)*sin({a}*y))")
    for a, b in ((0.25, 1.5), (0.75, 2.5)):
        for template in templates:
            parse(template.format(a=a, b=b))._kernels
    held = frozenset(_KERNEL_NAMES)
    for a, b in ((0.125, 3.5), (0.625, 4.5)):
        for template in templates:
            assert _kernel_identifiers(parse(template.format(a=a, b=b))) <= held
    assert set(_KERNEL_NAMES) == held


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
    calls = {"grid": 0, "evaluate": 0, "base_evaluate": 0, "compile_standard": 0}
    grid, evaluate = StandardMap.evaluate_grid, StandardMap.evaluate
    base_evaluate, compile_standard = PlanarMap.evaluate, expr.compile_standard

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    monkeypatch.setattr(linearize.StandardMap, "evaluate_grid", counting("grid", grid))
    monkeypatch.setattr(linearize.StandardMap, "evaluate", counting("evaluate", evaluate))
    monkeypatch.setattr(PlanarMap, "evaluate", counting("base_evaluate", base_evaluate))
    monkeypatch.setattr(expr, "compile_standard",
                        counting("compile_standard", compile_standard))
    injectivity_scan(standard_map(gallery.get("B").map), gallery.get("B").window, 51)
    assert calls == {"grid": 1, "evaluate": 0, "base_evaluate": 0, "compile_standard": 0}
    # a failing node is evaluated once more by the base map, for its exception,
    # and no point kernel of h is compiled for it
    h = StandardMap(parse("(1/(x - 0.5), y)"), IDENTITY)
    assert _outcome(injectivity_scan, h, Region(0, 1, 0, 1), 5, 1e-6, None)[:2] == \
        ("raised", EvaluationError)
    assert calls == {"grid": 2, "evaluate": 0, "base_evaluate": 1, "compile_standard": 0}


# ----------------------------------------------------------------------
# the fixed-point Newton on floats
# ----------------------------------------------------------------------

def _ref_polish(planar_map, seed, tol=1e-9, max_iter=60):
    p = (float(seed[0]), float(seed[1]))
    for _ in range(max_iter + 1):
        try:
            (fx, fy), jac = value_and_jacobian(planar_map, p)
        except EvaluationError:
            return None
        rx, ry = fx - p[0], fy - p[1]
        if math.hypot(rx, ry) <= tol:
            return p
        m = jac - IDENTITY
        step = solve_min_norm(m.a11, m.a12, m.a21, m.a22, -rx, -ry)
        nx, ny = p[0] + step[0], p[1] + step[1]
        if not (math.isfinite(nx) and math.isfinite(ny)):
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
    sample = GridSample(identity, Region(-1.0, 1.0, -1.0, 1.0, 9))
    monkeypatch.setattr(PlanarMap, "evaluate_with_jacobian", counting)
    scan = find_fixed_points(sample)
    assert len(scan.points) == 81 and scan.kind == "all"
    # Dphi(0) for the linear part, then one Jacobian per root
    assert calls == [(0.0, 0.0)] + [point.location for point in scan.points]
    monkeypatch.undo()
    for name in gallery.list_entries():
        entry = gallery.get(name)
        for point in find_fixed_points(GridSample(entry.map, entry.window.with_grid(11))).points:
            _, jac = value_and_jacobian(entry.map, point.location)
            assert point.classification in (classify_fixed_point(jac), "curve"), name
            assert point.jacobian == jac, name
