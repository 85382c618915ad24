"""The float Newton path against the Mat2 code it replaced.

``StandardMap.evaluate_with_jacobian`` builds h and Dh from the base map's raw
Jacobian entries, and ``invert_standard_map`` runs on those floats and
returns them at its root.  Both must give, bit for bit, what the ``Mat2``
chain gave: the references below are that code, with the inversion also
returning the value and Jacobian of its last convergence check.  The two
entries after h and Dh must be ``h.base.evaluate(p)``, bit for bit.
Results are compared by ``repr`` so that signed zeros count (a linear part
with -0.0 entries can make ``Dphi(0) Dphi(p)`` hold a -0.0 that ``I + ...``
turns into 0.0).  ``trace_leaves`` must equal tracing each
default leaf on its own.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
from matrices import value_and_jacobian

from planarinv import foliation
from planarinv.expr import EvaluationError, ExprNode, PlanarMap, parse
from planarinv.foliation import (
    VERTICAL,
    InversionError,
    default_leaf_parameters,
    diagonalize_involution,
    invert_standard_map,
    trace_leaf,
    trace_leaves,
)
from planarinv.gallery import get, list_entries
from planarinv.linalg2 import IDENTITY, MINUS_IDENTITY, Mat2
from planarinv.linearize import StandardMap, standard_map

FLIP_Y = Mat2(1.0, 0.0, 0.0, -1.0)


# ----------------------------------------------------------------------
# reference: the Mat2 code that the float path replaced
# ----------------------------------------------------------------------

def _ref_evaluate(h, p):
    fx, fy = h.base.evaluate(p)
    ax, ay = h.linear_part.apply((fx, fy))
    return (0.5 * p[0] + 0.5 * ax, 0.5 * p[1] + 0.5 * ay)


def _ref_evaluate_with_jacobian(h, p):
    (fx, fy), jac = value_and_jacobian(h.base, p)
    ax, ay = h.linear_part.apply((fx, fy))
    value = (0.5 * p[0] + 0.5 * ax, 0.5 * p[1] + 0.5 * ay)
    return value, (IDENTITY + h.linear_part @ jac).scale(0.5)


def _ref_invert(h, target, guess, tol=1e-10, max_iter=50):
    p = (float(guess[0]), float(guess[1]))
    for _ in range(max_iter + 1):
        try:
            value, dh = _ref_evaluate_with_jacobian(h, p)
        except EvaluationError as exc:
            raise InversionError(str(exc), p) from exc
        rx, ry = target[0] - value[0], target[1] - value[1]
        if math.hypot(rx, ry) <= tol:
            return p, _entries((value, dh)) + h.base.evaluate(p)
        det = dh.det
        scale = dh.max_abs()
        if abs(det) <= 1e-14 * max(scale * scale, 1e-30):
            raise InversionError("singular Jacobian during inversion", p)
        nx = p[0] + (rx * dh.a22 - dh.a12 * ry) / det
        ny = p[1] + (dh.a11 * ry - dh.a21 * rx) / det
        if not (math.isfinite(nx) and math.isfinite(ny)):
            raise InversionError("inversion iterate became non-finite", p)
        p = (nx, ny)
    raise InversionError(f"no convergence after {max_iter} iterations", p)


def _outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except InversionError as exc:
        return "raised", type(exc), str(exc), repr(exc.last_iterate)
    except EvaluationError as exc:
        return "raised", type(exc), str(exc)


def _entries(value_and_matrix):
    (hx, hy), m = value_and_matrix
    return (hx, hy, m.a11, m.a12, m.a21, m.a22)


def _ref_entries(h, p):
    """h and Dh by the Mat2 chain, then phi(p) from ``h.base.evaluate``."""
    return _entries(_ref_evaluate_with_jacobian(h, p)) + h.base.evaluate(p)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

_LITERALS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e300, math.inf]),
    st.floats(-4.0, 4.0),
)
_TREES = st.recursive(
    st.one_of(
        st.just(ExprNode("x")),
        st.just(ExprNode("y")),
        _LITERALS.map(lambda v: ExprNode("num", value=v)),
    ),
    lambda sub: st.one_of(
        st.builds(lambda k, a, b: ExprNode(k, (a, b)),
                  st.sampled_from(("add", "sub", "mul", "div")), sub, sub),
        st.builds(lambda k, a: ExprNode(k, (a,)),
                  st.sampled_from(("neg", "sinh", "asinh", "sqrt", "abs")), sub),
        st.builds(lambda a, n: ExprNode("pow", (a,), exponent=n), sub, st.integers(0, 5)),
    ),
    max_leaves=10,
)
_ENTRY = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-3.0, 3.0)
_LINEAR = st.one_of(
    st.sampled_from([IDENTITY, MINUS_IDENTITY, FLIP_Y, Mat2(0.5, 0.5, 1.5, -0.5)]),
    st.builds(Mat2, _ENTRY, _ENTRY, _ENTRY, _ENTRY),
)
_COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-6.0, 6.0)
_POINT = st.tuples(_COORD, _COORD)


def _expression_map(first, second):
    return PlanarMap.from_expressions(first, second, "random")


# ----------------------------------------------------------------------
# values and Jacobians
# ----------------------------------------------------------------------

def _assert_value_parity(h, p):
    assert _outcome(h.evaluate, p) == _outcome(_ref_evaluate, h, p)
    ref = _outcome(_ref_entries, h, p)
    assert _outcome(h.evaluate_with_jacobian, p) == ref


@settings(max_examples=200, deadline=None)
@given(_TREES, _TREES, _LINEAR, st.lists(_POINT, min_size=1, max_size=5))
@example(ExprNode("x"), ExprNode("y"), Mat2(-1.0, -0.0, -0.0, -1.0), [(1.0, 2.0)])
def test_standard_map_values_match_mat2_chain(first, second, linear, points):
    h = StandardMap(_expression_map(first, second), linear)
    for p in points:
        _assert_value_parity(h, p)


@settings(max_examples=100, deadline=None)
@given(st.lists(_POINT, min_size=1, max_size=5))
def test_standard_map_values_match_on_native_map(points):
    h = standard_map(get("C").map)
    for p in points:
        _assert_value_parity(h, p)


def test_off_diagonal_negative_zero_becomes_positive():
    # gallery minus-identity is (-x, -y), whose y-partial of -x is -0.0
    linear = standard_map(get("minus-identity").map).linear_part
    assert repr(linear) == repr(Mat2(-1.0, -0.0, -0.0, -1.0))
    # over the identity, Dphi(0) Dphi(p) has -0.0 off the diagonal; I + ... clears it
    h = StandardMap(parse("(x, y)"), linear)
    entries = h.evaluate_with_jacobian((1.0, 2.0))
    assert repr(entries) == repr(_ref_entries(h, (1.0, 2.0)))
    assert repr(entries[3:5]) == "(0.0, 0.0)"


# ----------------------------------------------------------------------
# inversions
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(_TREES, _TREES, _LINEAR, _POINT, _POINT, st.integers(0, 50))
def test_inversion_matches_mat2_newton(first, second, linear, target, guess, max_iter):
    h = StandardMap(_expression_map(first, second), linear)
    assert _outcome(invert_standard_map, h, target, guess, 1e-10, max_iter) == \
        _outcome(_ref_invert, h, target, guess, 1e-10, max_iter)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["A1", "A2", "A3", "A4", "B", "C", "flip-y"]), _POINT, _POINT)
def test_inversion_matches_mat2_newton_on_gallery(name, target, guess):
    h = standard_map(get(name).map)
    assert _outcome(invert_standard_map, h, target, guess) == \
        _outcome(_ref_invert, h, target, guess)


@settings(max_examples=200, deadline=None)
@given(_TREES, _TREES, _LINEAR, _POINT, _POINT, st.integers(0, 50))
def test_inversion_from_held_entries_matches_a_fresh_start(
        first, second, linear, target, guess, max_iter):
    h = StandardMap(_expression_map(first, second), linear)
    try:
        held = h.evaluate_with_jacobian(guess)
    except EvaluationError:
        return  # no entries to hold at this guess
    assert _outcome(invert_standard_map, h, target, guess, 1e-10, max_iter, held) == \
        _outcome(invert_standard_map, h, target, guess, 1e-10, max_iter)


def test_inversion_failures_match_mat2_newton():
    singular = StandardMap(parse("(x, y)"), MINUS_IDENTITY)
    non_finite = StandardMap(parse("(x + 0*y^999, -y)"), FLIP_Y)
    diverging = standard_map(get("A1").map)
    cases = [
        (singular, (1.0, 1.0), (0.3, 0.4), 50, "singular"),
        (non_finite, (0.0, 4.0), (0.0, 4.0), 50, "non-finite"),
        (diverging, (100.0, 60.0), (0.0, 0.0), 1, "no convergence"),
    ]
    for h, target, guess, max_iter, reason in cases:
        outcome = _outcome(invert_standard_map, h, target, guess, 1e-10, max_iter)
        assert outcome == _outcome(_ref_invert, h, target, guess, 1e-10, max_iter)
        assert outcome[0] == "raised" and reason in outcome[2]


# ----------------------------------------------------------------------
# trace_leaves
# ----------------------------------------------------------------------

def test_trace_leaves_equals_leaf_by_leaf_tracing():
    for name in list_entries():
        if name == "identity":
            continue  # no canonical foliation
        entry = get(name)
        h = standard_map(entry.map)
        fol = diagonalize_involution(h.linear_part)
        grid = None
        if fol.kind == VERTICAL:
            grid = foliation._eigen_grid(h, fol.change_of_basis, entry.window)
        params = default_leaf_parameters(fol, grid)
        together = trace_leaves(h, fol, entry.window)
        alone = [trace_leaf(h, fol, c, entry.window) for c in params]
        assert repr(together) == repr(alone), name


def test_trace_leaves_traces_through_module_trace_leaf(monkeypatch):
    entry = get("B")
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    seen = []
    families = []
    original = foliation.trace_leaf
    original_parameters = foliation.default_leaf_parameters

    def counting(*args, **kwargs):
        seen.append(args[2])
        return original(*args, **kwargs)

    def recording(*args, **kwargs):
        families.append(original_parameters(*args, **kwargs))
        return families[-1]

    monkeypatch.setattr(foliation, "trace_leaf", counting)
    monkeypatch.setattr(foliation, "default_leaf_parameters", recording)
    leaves = trace_leaves(h, fol, entry.window, count=3)
    # one family, its parameters taken once, each leaf traced by name
    assert len(families) == 1 and len(families[0]) == 3
    assert seen == families[0]
    assert [leaf.parameter for leaf in leaves] == seen
