"""Properties the paper states, on triangular conjugates of linear involutions.

For ``L`` one of ``I``, ``-I`` and ``(x, -y)`` and ``T(x, y) = (x, y + q(x))``
with ``q(0) = 0``, ``phi = T^-1 L T`` is a polynomial involution fixing the
origin with ``Dphi(0) = L``.  Its orientation is that of ``L``; it satisfies
Theorem A (orientation preserving) or Theorem B (reversing); and its
standard map ``h`` conjugates it to ``L`` and is injective.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from planarinv.expr import parse
from planarinv.involution import (
    ORIENTATION_PRESERVING,
    GridSample,
    Region,
    orientation,
    verify_involution,
)
from planarinv.linearize import (
    NO_COLLISION_FOUND,
    conjugacy_residual,
    injectivity_scan,
    standard_map,
)
from planarinv.spectral import theorem_verdict

_LINEAR = {"I": (1.0, 1.0), "-I": (-1.0, -1.0), "flip-y": (1.0, -1.0)}
# Dphi is triangular with the diagonal of L, so its spectrum is that of L
_VERDICT = {"I": "Theorem A(a)", "-I": "Theorem A(c)", "flip-y": "Theorem B"}
_WINDOW = Region(-2.0, 2.0, -2.0, 2.0, 21)

_COEFFICIENTS = st.lists(
    st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0]) | st.floats(-2.0, 2.0),
    min_size=1, max_size=4,
)


def _polynomial(coefficients, var):
    """q(var) = sum of c_k var^k for k >= 1, so q(0) = 0."""
    terms = [f"({c!r})*{var}^{k}" for k, c in enumerate(coefficients, start=1)]
    return "(" + " + ".join(terms) + ")"


def _conjugate(name, coefficients):
    """T^-1 L T (x, y) = (l1 x, l2 (y + q(x)) - q(l1 x)) as an expression map."""
    l1, l2 = _LINEAR[name]
    first = f"{l1!r}*x"
    second = (f"{l2!r}*(y + {_polynomial(coefficients, 'x')}) - "
              f"{_polynomial(coefficients, f'({first})')}")
    return parse(f"({first}, {second})")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_LINEAR)), _COEFFICIENTS,
       st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=1, max_size=8))
def test_triangular_conjugates_of_linear_involutions(name, coefficients, points):
    phi = _conjugate(name, coefficients)
    assert verify_involution(GridSample(phi, _WINDOW)).passed

    preserving = orientation(GridSample(phi, _WINDOW)).kind == ORIENTATION_PRESERVING
    assert preserving == (name != "flip-y")  # det L
    assessment = theorem_verdict(GridSample(phi, _WINDOW))
    assert assessment.verdict.startswith("Theorem A" if preserving else "Theorem B")
    assert assessment.verdict.startswith(_VERDICT[name])
    assert assessment.linearizable_on_window

    h = standard_map(phi)
    assert max(conjugacy_residual(h, p) for p in points) <= 1e-9
    assert injectivity_scan(h, _WINDOW, scan_n=41).status == NO_COLLISION_FOUND
