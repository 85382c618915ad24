import re
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrices import value_and_jacobian
from treewalk import entries, evaluate_node, seed

from planarinv import gallery
from planarinv.expr import (
    EvaluationError,
    ExprNode,
    ParseError,
    PlanarMap,
    compile_pair,
    parse,
    recentered,
)
from planarinv.involution import Region
from planarinv.linalg2 import Mat2
from planarinv.linearize import StandardMap


def test_parse_polynomial_shear():
    m = parse("(x - y^3, -y)")
    assert m.evaluate((1.0, 2.0)) == (-7.0, -2.0)
    assert m.evaluate((0.0, 0.0)) == (0.0, 0.0)


def test_parse_identity():
    m = parse("(x, y)")
    assert m.evaluate((3.5, -1.0)) == (3.5, -1.0)


def test_sinh_pair_at_origin():
    m = parse("(asinh((sinh(x) + sinh(y))/2), asinh((3*sinh(x) - sinh(y))/2))")
    assert m.evaluate((0.0, 0.0)) == (0.0, 0.0)


def test_syntax_error_carries_offset():
    with pytest.raises(ParseError) as err:
        parse("(x - , y)")
    assert err.value.position == 5
    assert "offset 5" in str(err.value)


def test_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("(tan(x), y)")
    assert "unknown identifier" in str(err.value)


def test_malformed_exponents():
    with pytest.raises(ParseError) as err:
        parse("(x^-2, y)")
    assert "non-negative" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("(x^2.5, y)")
    assert "integer" in str(err.value)
    with pytest.raises(ParseError):
        parse("(x^y, y)")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("(x, y) extra")
    with pytest.raises(ParseError):
        parse("(x, y")


@pytest.mark.parametrize("source, message, position", [
    ("(x - , y)",
     "expected a number, variable, function call, or parenthesized expression", 5),
    ("(x $ y, y)", "unexpected character '$'", 3),
    ("(tan(x), y)", "unknown identifier 'tan'", 1),
    ("(x^-2, y)", "exponent must be non-negative", 3),
    ("(x^2.5, y)", "exponent must be an integer literal", 3),
    ("(x^y, y)", "exponent must be an integer literal", 3),
    pytest.param("(x^" + "9" * 5000 + ", y)", "exponent has too many digits", 3,
                 id="(x^<5000 nines>, y)"),
    ("(x^, y)", "exponent must be an integer literal", 3),
    ("(sin x, y)", "expected '('", 5),
    ("(2^3^2, y)", "expected ','", 4),
    ("(x, y) extra", "unexpected trailing input 'extra'", 7),
    ("(x, y))", "unexpected trailing input ')'", 6),
    ("(x, y", "expected ')'", 5),
    ("(x,,y)", "expected a number, variable, function call, or parenthesized expression", 3),
    ("(1..2, y)", "unexpected character '.'", 3),
    ("(.5, y)", "unexpected character '.'", 1),
    ("", "expected '('", 0),
    ("   ", "expected '('", 3),
    # an unexpected character anywhere is reported before any syntax error
    ("(x - , y $)", "unexpected character '$'", 9),
    # Unicode digits are digits and Unicode whitespace is whitespace
    ("(x^\u0663, y", "expected ')'", 7),
    ("(x,\u3000y) (", "unexpected trailing input '('", 7),
])
def test_malformed_maps_fail_with_their_message_and_offset(source, message, position):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == f"{message} (at offset {position})"
    assert err.value.position == position


_LEAVES = (st.sampled_from(["x", "y"])
           | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(abs))
_TREES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), inner, inner),
    st.tuples(st.sampled_from(["neg", "sinh", "cosh", "asinh", "sqrt", "abs", "sin", "cos"]),
              inner),
    st.tuples(st.just("pow"), inner, st.integers(0, 16) | st.integers(0, 10**9))), max_leaves=12)


def _printed(tree) -> str:
    """``tree`` fully parenthesized, a literal as its repr."""
    if isinstance(tree, float):
        return repr(tree)
    if isinstance(tree, str):
        return tree
    kind, *args = tree
    if kind == "pow":
        return f"(({_printed(args[0])})^{args[1]})"
    if kind == "neg":
        return f"(-{_printed(args[0])})"
    if len(args) == 2:
        op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
        return f"({_printed(args[0])} {op} {_printed(args[1])})"
    return f"{kind}({_printed(args[0])})"


def _matches(node, tree) -> bool:
    """Whether ``node`` is ``tree`` node for node: kind, exponent and the repr of the value."""
    if not isinstance(tree, tuple):
        value = tree if isinstance(tree, float) else None
        return ((node.kind, repr(node.value), node.exponent, node.children)
                == ("num" if value is not None else tree, repr(value), None, ()))
    kind, *args = tree
    exponent = args.pop() if kind == "pow" else None
    return ((node.kind, node.value, node.exponent, len(node.children))
            == (kind, None, exponent, len(args)) and all(map(_matches, node.children, args)))


@settings(max_examples=300, deadline=None)
@given(_TREES, _TREES)
def test_a_printed_tree_parses_back_to_itself(first, second):
    m = parse(f"({_printed(first)}, {_printed(second)})")
    assert _matches(m.asts[0], first) and _matches(m.asts[1], second)


def test_parentheses_and_calls_nest_to_any_depth():
    m = parse("(" + "(" * 20000 + "x" + ")" * 20000 + ", "
              + "abs(" * 5000 + "-y" + ")" * 5000 + ")")
    assert (m.asts[0].kind, m.asts[0].children) == ("x", ())
    node, calls = m.asts[1], 0
    while node.kind == "abs":
        node, calls = node.children[0], calls + 1
    (leaf,) = node.children
    assert calls == 5000 and node.kind == "neg" and (leaf.kind, leaf.children) == ("y", ())
    assert m.evaluate((1.5, 2.0)) == (1.5, 2.0)
    with pytest.raises(ParseError) as err:  # one parenthesis left open
        parse("(" + "(" * 20000 + "x" + ")" * 19999 + ", y)")
    assert str(err.value) == "expected ')' (at offset 40001)"  # at the comma


def _distinct_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


def test_a_deep_shared_dag_compiles_and_recenters_once_per_distinct_node():
    # two 40-level DAGs whose trees would have 2^40 leaves:
    # d <- (d + d)*0.5 from x, and e <- e*e*0.5 + y from y
    x, y, half = ExprNode("x"), ExprNode("y"), ExprNode("num", value=0.5)
    d, e = x, y
    for _ in range(40):
        d = ExprNode("mul", (ExprNode("add", (d, d)), half))
        e = ExprNode("add", (ExprNode("mul", (ExprNode("mul", (e, e)), half)), y))
    m = PlanarMap.from_expressions(d, e, "doubling")
    start = time.perf_counter()
    value, jacobian, _ = compile_pair(d, e)
    shifted = recentered(m, (0.25, -0.5))
    shifted.evaluate((0.0, 0.0))  # compiles the recentered trees
    assert time.perf_counter() - start < 0.5
    assert _distinct_nodes(shifted.asts[0]) == _distinct_nodes(d) + 3
    assert _distinct_nodes(shifted.asts[1]) == _distinct_nodes(e) + 3

    def reference(px, py):
        u, v = px, py
        for _ in range(40):
            u, v = (u + u) * 0.5, v * v * 0.5 + py
        return u, v

    for px, py in [(0.3, 0.2), (-1.7, -0.9), (1e300, 0.5), (0.0, -1.0)]:
        assert value(px, py) == reference(px, py)
        assert jacobian(px, py)[:4] == reference(px, py) + (1.0, 0.0)
        sx, sy = reference(px + 0.25, py + -0.5)
        assert shifted.evaluate((px, py)) == (sx - 0.25, sy - -0.5)


def test_node_equality_hash_and_repr_go_by_identity_at_any_depth():
    # a 2,000-term sum nests 2,000 deep; a 40-level doubling DAG has 2^40 paths
    total = parse("(" + " + ".join(["x"] * 2000) + ", y)")
    d, half = ExprNode("x"), ExprNode("num", value=0.5)
    for _ in range(40):
        d = ExprNode("mul", (ExprNode("add", (d, d)), half))
    twin = parse(total.source)
    start = time.perf_counter()
    for node, same in [(total.asts[0], twin.asts[0]), (d, ExprNode("mul", d.children))]:
        assert node == node and hash(node) == hash(node)
        assert node != same  # the same structure is another node
        assert repr(node).startswith("<planarinv.expr.ExprNode object at ")
    assert total == total and hash(total) == hash(total) and total != twin
    assert time.perf_counter() - start < 0.1


def test_division_by_zero_reports_point():
    m = parse("(1/x, y)")
    with pytest.raises(EvaluationError) as err:
        m.evaluate((0.0, 1.0))
    assert err.value.point == (0.0, 1.0)
    with pytest.raises(EvaluationError):
        m.evaluate_with_jacobian((0.0, 1.0))


def test_jacobian_triangular_shear_at_origin():
    m = parse("(x - y^3, -y)")
    val, jac = value_and_jacobian(m, (0.0, 0.0))
    assert val == (0.0, 0.0)
    assert jac.rows() == ((1.0, 0.0), (-0.0, -1.0))


def test_jacobian_identity_everywhere():
    m = parse("(x, y)")
    _, jac = value_and_jacobian(m, (2.7, -8.1))
    assert jac.rows() == ((1.0, 0.0), (0.0, 1.0))


def test_jacobian_even_shear_matches_finite_differences():
    m = parse("(-x + y^2, -y)")
    _, jac = value_and_jacobian(m, (0.0, 2.0))
    assert jac.a11 == -1.0 and jac.a21 == 0.0 and jac.a22 == -1.0
    assert jac.a12 == pytest.approx(4.0, rel=1e-12)
    h = 1e-6
    fd = (m.evaluate((0.0, 2.0 + h))[0] - m.evaluate((0.0, 2.0 - h))[0]) / (2 * h)
    assert jac.a12 == pytest.approx(fd, rel=1e-5)


def test_constant_component_has_zero_jacobian_row():
    m = parse("(1 + 2*3, y)")
    val, jac = value_and_jacobian(m, (5.0, 6.0))
    assert val == (7.0, 6.0)
    assert jac.rows() == ((0.0, 0.0), (0.0, 1.0))


@pytest.mark.parametrize("source", [
    "(x - y^3, -y)",
    "(-y - ((x+y)/2)^3, -x + ((x+y)/2)^3)",
    "(asinh((sinh(x) + sinh(y))/2), asinh((3*sinh(x) - sinh(y))/2))",
    "(sqrt(abs(x) + 1.5) - cosh(y / 4), 2.0e0 * y)",
])
def test_jacobian_against_finite_differences(source):
    m = parse(source)
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(200):
        p = tuple(rng.uniform(-3, 3, 2))
        _, jac = value_and_jacobian(m, p)
        for (i, j), d in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                             (jac.a11, jac.a12, jac.a21, jac.a22)):
            lo = list(p)
            hi = list(p)
            lo[j] -= h
            hi[j] += h
            fd = (m.evaluate(tuple(hi))[i] - m.evaluate(tuple(lo))[i]) / (2 * h)
            assert d == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_unary_minus_binds_before_power():
    # the grammar applies "^" to the whole unary, so -y^2 is (-y)^2
    m = parse("(-y^2, x)")
    assert m.evaluate((0.0, 3.0))[0] == 9.0


def test_nodes_refuse_a_value_or_exponent_that_their_kind_does_not_take():
    x = ExprNode("x")
    bad = [("num", (), None, None), ("num", (), "a", None), ("num", (), 1j, None),
           ("x", (), 3.0, None), ("add", (x, x), 0.0, None), ("num", (), 1.0, 2),
           ("neg", (x,), None, 1), ("pow", (x,), 1.0, 2)]
    for kind, children, value, exponent in bad:
        with pytest.raises(ValueError):
            ExprNode(kind, children, value, exponent)
    # int and float literals are accepted, and a constant component comes out a float
    for value in (2, 0, -0.0):
        m = PlanarMap.from_expressions(ExprNode("num", value=value), ExprNode("y"), "s")
        assert repr(m.evaluate((1.0, 2.0))) == repr((float(value), 2.0))
    with pytest.raises(EvaluationError):
        PlanarMap.from_expressions(ExprNode("num", value=1e999), x, "s").evaluate((1.0, 2.0))


@pytest.mark.parametrize("value", [Decimal("sNaN"), Fraction(10**400)], ids=["sNaN", "10^400"])
def test_nodes_refuse_a_literal_that_has_no_float(value):
    # the kernels take a literal other than an int or a float as its float,
    # and they compile outside every kernel's try
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        ExprNode("num", value=value)


@pytest.mark.parametrize("owner, method", [
    ("phi", "evaluate"), ("phi", "evaluate_with_jacobian"),
    ("h", "evaluate"), ("h", "evaluate_with_jacobian"), ("h", "evaluate_grid")])
def test_a_constant_with_no_float_fails_as_an_evaluation_error(owner, method):
    # a constant component is its literal, here an int that no float holds
    phi = PlanarMap.from_expressions(ExprNode("num", value=10**400), ExprNode("y"), "big")
    call = getattr({"phi": phi, "h": StandardMap(phi, Mat2(1.0, 0.0, 0.0, -1.0))}[owner], method)
    if method == "evaluate_grid":
        us, vs, error = call([1.0], [2.0])
        assert (us, vs) == ([], [])
    else:
        with pytest.raises(Exception) as info:
            call((1.0, 2.0))
        error = info.value
    assert isinstance(error, EvaluationError), repr(error)
    assert error.point == (1.0, 2.0)
    assert str(error).startswith("int too large to convert to float")


def test_native_and_expression_maps_share_the_contract():
    # the same map parsed and built from trees: y*y*y against y^3
    expr_map = parse("(x - y^3, -y)")
    x, y = ExprNode("x"), ExprNode("y")
    built = PlanarMap.from_expressions(
        ExprNode("sub", (x, ExprNode("mul", (ExprNode("mul", (y, y)), y)))),
        ExprNode("neg", (y,)), "shear")
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = tuple(rng.uniform(-4, 4, 2))
        assert built.evaluate(p) == pytest.approx(expr_map.evaluate(p), rel=1e-14)
        _, j1 = value_and_jacobian(built, p)
        _, j2 = value_and_jacobian(expr_map, p)
        assert (j1 - j2).max_abs() < 1e-12


def test_recentered_conjugates_by_translation():
    m = parse("(-x + 1, -y)")  # fixes (0.5, 0)
    shifted = recentered(m, (0.5, 0.0))
    assert shifted.evaluate((0.0, 0.0)) == (0.0, 0.0)
    assert shifted.evaluate((1.0, 2.0)) == (-1.0, -2.0)
    _, jac = value_and_jacobian(shifted, (0.3, 0.4))
    assert jac.rows() == ((-1.0, 0.0), (0.0, -1.0))


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return "raised", type(exc), str(exc)


def test_recentered_expression_maps_compile_and_match_the_wrapper():
    def wrapped(base, center, x, y):  # the base trees walked at p + center, minus center
        cx, cy = center
        u, v = (evaluate_node(tree, x + cx, y + cy) for tree in base.asts)
        return u - cx, v - cy

    def wrapped_entries(base, center, x, y):
        return entries(*wrapped(base, center, *seed(x, y)))

    shifted_entries = [gallery.get("A2", 0), gallery.get("A4", 0)]
    cases = [(parse(e.formula), e.recentered_at, e.window) for e in shifted_entries]
    cases.append((parse("(sqrt(x) + 1/y, -y + x^2)"), (0.25, -0.5), Region(-2, 2, -2, 2, 17)))
    for base, center, window in cases:
        shifted = recentered(base, center)
        assert shifted.source == f"recentered({base.source} @ ({center[0]:g}, {center[1]:g}))"
        value, jacobian, _ = compile_pair(*shifted.asts)
        for x, y in window.nodes():
            assert _outcome(value, x, y) == _outcome(wrapped, base, center, x, y)
            assert _outcome(jacobian, x, y) == _outcome(wrapped_entries, base, center, x, y)


def test_non_finite_samples_raise_with_point():
    # 0 * inf: every sample on this window is NaN
    m = parse("(x + 0*y^999, -y)")
    with pytest.raises(EvaluationError) as err:
        m.evaluate((4.0, 4.0))
    assert err.value.point == (4.0, 4.0)
    assert "non-finite" in str(err.value)
    with pytest.raises(EvaluationError):
        m.evaluate_with_jacobian((4.0, 4.0))
    assert m.evaluate((4.0, 0.5)) == (4.0, -0.5)


def test_non_finite_partial_raises_for_native_maps():
    # at y = 0 the value of y*1e300*1e300 is 0 and its y-partial inf
    m = parse("(x, y*1e300*1e300)")
    assert m.evaluate((1.0, 0.0)) == (1.0, 0.0)
    with pytest.raises(EvaluationError) as err:
        m.evaluate_with_jacobian((1.0, 0.0))
    assert err.value.point == (1.0, 0.0)
    overflow = parse("(x*1e308*10, y)")
    with pytest.raises(EvaluationError):
        overflow.evaluate((1.0, 0.0))
