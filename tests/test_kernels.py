"""Compiled expression kernels against the tree-walking reference.

``compile_pair`` must return, bit for bit, what ``treewalk.evaluate_node``
returns on floats and on seeded duals, and raise the same exceptions with
the same messages.  Results are compared by ``repr`` so that signed zeros,
infinities and NaNs all count.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from treewalk import evaluate_node, jacobian_entries

from planarinv import gallery
from planarinv.expr import ExprNode, compile_pair, parse

_BINARY = ("add", "sub", "mul", "div")
_UNARY = ("neg", "sinh", "cosh", "asinh", "sqrt", "abs", "sin", "cos")

_LITERALS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 710.0, 1e300, 1e-300,
                     float("1e999"), -math.inf, math.nan]),
    st.floats(),
)
_LEAVES = st.one_of(
    st.just(ExprNode("x")),
    st.just(ExprNode("y")),
    _LITERALS.map(lambda v: ExprNode("num", value=v)),
)
_TREES = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(lambda k, a, b: ExprNode(k, (a, b)), st.sampled_from(_BINARY), sub, sub),
        st.builds(lambda k, a: ExprNode(k, (a,)), st.sampled_from(_UNARY), sub),
        st.builds(lambda a, n: ExprNode("pow", (a,), exponent=n), sub, st.integers(0, 7)),
    ),
    max_leaves=14,
)
_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-8, 400.0]),
    st.floats(-10.0, 10.0),
)


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return "raised", type(exc), str(exc)


def _reference_value(first, second, x, y):
    return evaluate_node(first, x, y), evaluate_node(second, x, y)


def _assert_parity(first, second, points):
    value, jacobian, _ = compile_pair(first, second)
    for x, y in points:
        assert _outcome(value, x, y) == _outcome(_reference_value, first, second, x, y)
        assert _outcome(jacobian, x, y) == _outcome(jacobian_entries, first, second, x, y)


@settings(max_examples=400, deadline=None)
@given(_TREES, _TREES, st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=6))
@example(ExprNode("num", value=2.0), ExprNode("y"), [(0.0, 0.0)])
@example(ExprNode("num", value=float("1e999")), ExprNode("num", value=-0.0), [(1.0, -1.0)])
def test_kernels_match_tree_walk(first, second, points):
    _assert_parity(first, second, points)


def test_kernels_match_on_literal_edge_cases():
    cases = [
        "(1e999 - 1e999*x, 2)",  # inf literal, NaN value, number component
        "(x + 0*y^999, -y)",  # inf times zero: NaN value and partials
        "(x/(y - y), 1/x)",  # Dual / Dual and number / Dual at zero
        "(sqrt(x^2), abs(y - 1))",  # sqrt derivative at zero, abs kink
        "(cosh(800*x), sinh(x)^0)",  # overflow; zeroth power of a Dual
        "((2^3)^2 / 0, x)",  # number-only division by zero
        "(asinh(x/2) + asinh(x/2), -(-x))",  # shared subtrees
        "(sin(x*y) - cos(x), cos(1e300*y) + sin(2))",  # sin and cos, of a constant too
        "(sin(1e999*x), cos(x)^0)",  # sin of inf raises; zeroth power of cos
    ]
    points = [(0.0, 0.0), (-0.0, 1.0), (1.0, -1.0), (3.0, 4.0), (-2.0, 0.5)]
    for source in cases:
        _assert_parity(*parse(source).asts, points)


def test_literals_equal_under_eq_stay_distinct():
    plus = ExprNode("add", (ExprNode("x"), ExprNode("num", value=0.0)))
    minus = ExprNode("add", (ExprNode("x"), ExprNode("num", value=-0.0)))
    value, _, _ = compile_pair(plus, minus)
    assert repr(value(-0.0, 1.0)) == "(0.0, -0.0)"
    _assert_parity(plus, minus, [(-0.0, 1.0)])
    two, int_two = ExprNode("num", value=2.0), ExprNode("num", value=2)
    _assert_parity(ExprNode("neg", (two,)), ExprNode("neg", (int_two,)), [(1.0, 1.0)])
    _assert_parity(ExprNode("pow", (int_two,), exponent=1),
                   ExprNode("div", (int_two, ExprNode("num", value=0))), [(1.0, 1.0)])


def test_kernels_match_on_every_gallery_expression():
    for name in gallery.list_entries():
        for n in ((0, 1, 2) if name in ("A1", "A2", "A3", "A4") else (None,)):
            entry = gallery.get(name, n)
            _assert_parity(*entry.map.asts, list(entry.window.nodes()))


# ----------------------------------------------------------------------
# power chains: a^k starts from the highest power of a already emitted
# ----------------------------------------------------------------------

_POWER_BASES = (ExprNode("x"), ExprNode("y"), parse("((x + y)/2, sinh(y))").asts[0],
                parse("((x + y)/2, sinh(y))").asts[1])
# signed zeros, subnormals, and bases whose powers overflow
_POWER_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-160, 1.0, -1.0, 1.5, -0.75,
                     1e30, -1e31, 1e300, 700.0]),
    st.floats(-1e40, 1e40),
)
_POWER_AXIS = st.lists(_POWER_COORDS, min_size=1, max_size=5)


def _grid_outcome(first, second, xs, ys, linear):
    """The grid kernel's lists, which end before the first failing node."""
    us, vs = [], []
    try:
        compile_pair(first, second)[2](xs, ys, *linear, us, vs)
    except (ArithmeticError, ValueError):
        pass
    return repr(us), repr(vs)


def _reference_grid(first, second, xs, ys, linear):
    a11, a12, a21, a22 = linear
    us, vs = [], []
    for y in ys:
        for x in xs:
            try:
                u, v = (float(value) for value in _reference_value(first, second, x, y))
            except (ArithmeticError, ValueError):
                return repr(us), repr(vs)
            if not 0.0 * u * v == 0.0:
                return repr(us), repr(vs)
            us.append(0.5 * x + 0.5 * (a11 * u + a12 * v))
            vs.append(0.5 * y + 0.5 * (a21 * u + a22 * v))
    return repr(us), repr(vs)


def _assert_power_parity(first, second, xs, ys):
    _assert_parity(first, second, [(x, y) for y in ys for x in xs])
    for linear in ((1.0, 0.0, 0.0, 1.0), (-1.0, 0.5, -0.0, -1.0)):
        assert _grid_outcome(first, second, xs, ys, linear) == \
            _reference_grid(first, second, xs, ys, linear)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_POWER_BASES),
       st.lists(st.integers(2, 12), min_size=1, max_size=11, unique=True),
       st.integers(0, 12), _POWER_AXIS, _POWER_AXIS)
@example(ExprNode("y"), [3, 5, 7, 9], 2, [0.5, -0.0], [5e-324, 1e40, -1.5])
@example(ExprNode("x"), [12, 2, 11, 3], 12, [1e-160, -1e31], [0.0])
def test_power_chains_match_tree_walk(base, exponents, last, xs, ys):
    # the powers of one base, emitted in the drawn order and summed; the
    # second component takes one more power, often one already emitted
    powers = [ExprNode("pow", (base,), exponent=k) for k in exponents]
    first = powers[0]
    for k, power in enumerate(powers[1:]):
        first = ExprNode("add" if k % 2 else "sub", (first, power))
    second = ExprNode("mul", (ExprNode("y"), ExprNode("pow", (base,), exponent=last)))
    _assert_power_parity(first, second, xs, ys)


def test_long_powers_keep_their_loops():
    # unrolled, these runs would nest too deep to compile
    points = [0.5, -1.0, 1.0000001, -0.0, 2.0]
    for source in ("(x + 0*y^3000, -y)", "(y^10000, x)", "(y^10000 - y^3, y^9999 + x^2)",
                   "(x^2 + x^40, x^41 - x^39)"):
        _assert_power_parity(*parse(source).asts, points, points)
