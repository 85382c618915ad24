import math

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st
from matrices import value_and_jacobian

from planarinv.expr import ExprNode, PlanarMap, parse
from planarinv.gallery import get, list_entries
from planarinv.involution import ORIENTATION_PRESERVING, GridSample, Region, orientation
from planarinv.linalg2 import Mat2
from planarinv.spectral import (
    COND_B_TRACE,
    check_condition_A,
    check_condition_B,
    sample_spectrum,
    theorem_verdict,
)


def test_samples_constant_minus_one_spectrum():
    entry = get("A2")
    samples = sample_spectrum(GridSample(entry.map, entry.window))
    assert len(samples) == 41 * 41
    for s in samples:
        assert s.spectrum.lambda1 == -1.0
        assert s.spectrum.lambda2 == -1.0


def test_samples_trace_product_exactly_two():
    entry = get("A1")
    for s in sample_spectrum(GridSample(entry.map, entry.window)):
        assert s.trace_product == 2.0


def test_samples_identity():
    for s in sample_spectrum(GridSample(parse("(x, y)"), Region(-5, 5, -5, 5))):
        assert (s.spectrum.lambda1, s.spectrum.lambda2) == (1.0 + 0j, 1.0 + 0j)


def test_condition_A_even_shear():
    samples = sample_spectrum(GridSample(get("A2").map, Region(-5, 5, -5, 5)))
    checks = check_condition_A(samples)
    assert not checks.a.holds_on_window
    assert checks.a.witness is not None
    assert checks.b.holds_on_window
    assert checks.b.margin == 2.0  # dist(1, {-1}), the double root
    assert checks.c.holds_on_window


def test_condition_A_identity():
    samples = sample_spectrum(GridSample(parse("(x, y)"), Region(-5, 5, -5, 5)))
    checks = check_condition_A(samples)
    assert checks.a.holds_on_window


def test_condition_A_real_negative_spectrum_passes_b_for_any_epsilon():
    # the spectrum is {-1}, so [1, 1+eps) misses it for every eps > 0
    samples = sample_spectrum(GridSample(get("A4").map, Region(-5, 5, -5, 5)))
    checks = check_condition_A(samples)
    assert checks.b.holds_on_window
    assert checks.b.margin == 2.0


def test_condition_A_rotation_blend_fails_with_unit_witness():
    # p(1) vanishes on the disks where the map is a translation and changes
    # sign around them; the witness is a node where it vanishes
    entry = get("C")
    samples = sample_spectrum(GridSample(entry.map, Region(-6, 6, -6, 6)))
    checks = check_condition_A(samples)
    assert not checks.a.holds_on_window
    assert not checks.b.holds_on_window
    assert not checks.c.holds_on_window
    assert checks.b.margin == 0.0
    w = checks.b.witness
    assert abs(w.spectrum.lambda1 - 1.0) <= 1e-12
    assert abs(w.spectrum.lambda2 - 1.0) <= 1e-12


def test_condition_A_b_needs_no_epsilon():
    # eigenvalues 1.05 and 1/1.05 come near 1 without reaching it: p(1) keeps
    # one sign, and the margin is the largest eps that works
    samples = sample_spectrum(GridSample(parse("(1.05*x, y/1.05)"), Region(-5, 5, -5, 5, 5)))
    checks = check_condition_A(samples)
    assert checks.b.holds_on_window
    assert checks.b.witness is None
    assert checks.b.margin == pytest.approx(1.0 - 1.0 / 1.05, rel=1e-12)
    assert checks.c.holds_on_window


@pytest.mark.parametrize("source, distance", [
    ("(1e154*x - y, 1e154*y + x)", 1e154),  # eigenvalues 1e154 +- i: t^2 - 4d is inf - inf
    ("(1e200*x, 1e-100*y)", 1.0),  # eigenvalues 1e200 and 1e-100: t^2 is inf
])
def test_condition_A_b_margin_survives_an_overflowing_discriminant(source, distance):
    checks = check_condition_A(sample_spectrum(GridSample(parse(source), Region(-1, 1, -1, 1, 3))))
    assert checks.b.holds_on_window
    assert checks.b.margin == pytest.approx(distance, rel=0.01)


@pytest.mark.parametrize("source, real", [
    ("(1e154*x, 1e154*y)", True),  # the double eigenvalue 1e154: t^2 - 4d is inf - inf
    ("(1e154*x + 1e153*y, 1e154*y)", True),  # a Jordan block at 1e154
    ("(7e153*x - 7e153*y, 7e153*y + 7e153*x)", False),  # 7e153 (1 +- i): 4d overflows
])
def test_condition_A_c_is_decided_where_the_discriminant_overflows(source, real):
    assessment = theorem_verdict(GridSample(parse(source), Region(-1, 1, -1, 1, 3)))
    c = assessment.conditions[2]
    assert c.holds_on_window is real
    assert (c.margin >= 0.0) is real
    assert ("Theorem A(c)" in assessment.verdict) is real


@pytest.mark.parametrize("source, distance", [
    ("(1e200*x, 1e200*y)", 1e200),  # the double eigenvalue 1e200: d = 1e400 is inf
    ("(1e200*x - 1e200*y, 1e200*y + 1e200*x)", math.sqrt(2.0) * 1e200),  # 1e200 (1 +- i)
])
def test_condition_A_b_is_decided_where_p1_overflows(source, distance):
    assessment = theorem_verdict(GridSample(parse(source), Region(-1, 1, -1, 1, 3)))
    assert assessment.orientation.kind == ORIENTATION_PRESERVING
    b = assessment.conditions[1]
    assert b.holds_on_window and b.witness is None
    assert b.margin == pytest.approx(distance, rel=1e-12)


def test_condition_A_b_fails_for_a_jordan_block_at_one_whose_terms_overflow():
    # Dphi = I + 1e200 N with N = [[1, -1], [1, -1]] nilpotent: both
    # eigenvalues are 1, and p(1) is zero to within its rounding size
    samples = sample_spectrum(GridSample(parse("(x + 1e200*(x - y), y + 1e200*(x - y))"),
                                         Region(-1, 1, -1, 1, 3)))
    checks = check_condition_A(samples)
    assert not checks.b.holds_on_window
    assert checks.b.witness.point == (-1.0, -1.0)


def test_condition_A_a_is_decided_on_scaled_entries_where_p1_overflows():
    # eigenvalues +-1e200 i: t = 0 is within the rounding size of t - 2, and
    # p(1) is inf - inf on the raw entries
    assessment = theorem_verdict(GridSample(parse("(1e200*x + 2e200*y, -1e200*x - 1e200*y)"),
                                            Region(-1, 1, -1, 1, 3)))
    assert assessment.verdict == ("Theorem A(b) applies on [-1, 1] x [-1, 1] (1 is never an "
                                  "eigenvalue; distance to the spectrum 1e+200)")
    a, b, c = assessment.conditions
    assert not a.holds_on_window and a.margin < 0.0
    assert b.holds_on_window and b.margin == pytest.approx(1e200, rel=1e-12)
    assert not c.holds_on_window
    s = a.witness.spectrum
    assert s.lambda1.real == s.lambda2.real == 0.0
    assert s.lambda2.imag == -s.lambda1.imag == pytest.approx(1e200, rel=1e-15)


def test_condition_B_trace_product_that_overflows_both_ways_fails():
    # at (1, 0) the trace product is -3.5e400; its float products give inf - inf
    assessment = theorem_verdict(GridSample(
        parse("(1e200*(-x + y + x^2 - 0.5*x*y), 1e200*(x + 2*y - 4*x*y))"),
        Region(0, 1, -0.01, 0.01, 3)))
    assert assessment.verdict == ("no hypothesis verified on [0, 1] x [-0.01, 0.01]; "
                                  "Theorem B trace condition violated at (1, -0.01)")
    (b,) = assessment.conditions
    assert b.margin == -math.inf
    assert b.witness.trace_product == -math.inf


def test_condition_A_b_fails_where_p1_changes_sign():
    # Dphi = diag(1 + x, -1): p(1) = -2x takes both signs and never vanishes
    # on the even grid's nodes; the witness is the first node of the other sign
    samples = sample_spectrum(GridSample(parse("(x + x^2/2, -y)"), Region(-1, 1, -1, 1, 4)))
    checks = check_condition_A(samples)
    assert not checks.b.holds_on_window
    assert checks.b.margin == 0.0
    assert checks.b.witness.point == pytest.approx((1.0 / 3.0, -1.0))
    # Dphi = diag(1 + g'(x), -1) with g' = (x + 3/4)(x - 1/2): on the nodes
    # -1, -1/2, 0, 1/2, 1 p(1) = -2 g'(x) changes sign at -1/2 and vanishes
    # at 1/2, the node that is reported
    g = "x^3/3 + 0.125*x^2 - 0.375*x"
    samples = sample_spectrum(GridSample(parse(f"(x + {g}, -y)"), Region(-1, 1, -1, 1, 5)))
    checks = check_condition_A(samples)
    assert not checks.b.holds_on_window
    assert checks.b.witness.point == (0.5, -1.0)


def _linear_samples(m: Mat2):
    # built from num nodes: the entries need not have a short decimal spelling
    def row(a, b):
        return ExprNode("add", (ExprNode("mul", (ExprNode("num", value=a), ExprNode("x"))),
                                ExprNode("mul", (ExprNode("num", value=b), ExprNode("y")))))

    planar_map = PlanarMap.from_expressions(row(m.a11, m.a12), row(m.a21, m.a22), "linear")
    return sample_spectrum(GridSample(planar_map, Region(-1, 1, -1, 1, 2)))


def _jordan_block(lam, s, v1, v2):
    # lam I + s v w^T with w = (-v2, v1), so w^T v = 0: lam is a double root
    return Mat2(lam - s * v1 * v2, s * v1 * v1, -s * v2 * v2, lam + s * v1 * v2)


def test_condition_A_c_tolerance_cannot_make_a_small_rotation_real():
    # eigenvalues 1 +- e i with e = 1.5 * 2^-23; every float here is exact and
    # t^2 - 4d = -4 e^2 is 72 ulps of its terms: a tolerance of 72 ulps or
    # more would count the pair as real
    e = 1.5 * 2.0**-23
    checks = check_condition_A(_linear_samples(Mat2(1.0, -e, e, 1.0)))
    assert not checks.c.holds_on_window
    s = checks.c.witness.spectrum
    assert (s.lambda1, s.lambda2) == (complex(1.0, -e), complex(1.0, e))


_ENTRY = st.floats(-3.0, 3.0)
# factors whose products in _jordan_block stay normal: a subnormal entry is
# rounded by up to 2^-1075 absolutely, so the float matrix would be no
# Jordan block even up to one rounding per entry
_FACTOR = _ENTRY.filter(lambda v: v == 0.0 or abs(v) >= 1e-100)


@settings(max_examples=300, deadline=None)
@given(_FACTOR | st.just(1.0), _FACTOR, _FACTOR, _FACTOR)
@example(-1.0, 2.9, 0.7, -1.3)
@example(1.0, -2.3, 1.1, 0.9)
@example(1.5 * 2.0**-538, 0.0, 0.0, 0.0)  # t^2 - 4d rounds to -2^-1073
def test_condition_A_jordan_block_is_real_and_at_one_fails_b(lam, s, v1, v2):
    checks = check_condition_A(_linear_samples(_jordan_block(lam, s, v1, v2)))
    assert checks.c.holds_on_window
    if lam == 1.0:
        assert not checks.b.holds_on_window


@settings(max_examples=300, deadline=None)
@given(_FACTOR, _FACTOR, _FACTOR, _FACTOR)
@example(1.0, 0.0, 0.0, 1.0)
@example(1.0, -1.0, 1.0, 1.0)
def test_condition_A_c_is_unchanged_by_a_scale_that_overflows(a11, a12, a21, a22):
    # 2^510 times entries near 1 to 3 makes t^2 or 4|a11*a22| overflow, and a
    # power of two scales t^2 - 4d and its tolerance without rounding
    big = 2.0**510
    small = check_condition_A(_linear_samples(Mat2(a11, a12, a21, a22))).c
    large = check_condition_A(_linear_samples(Mat2(a11 * big, a12 * big, a21 * big, a22 * big))).c
    assert large.holds_on_window is small.holds_on_window
    assert (large.margin >= 0.0) is large.holds_on_window


@settings(max_examples=300, deadline=None)
@given(_ENTRY, _ENTRY, _ENTRY, _ENTRY)
@example(1.0, 0.0, 0.0, 1.0)
@example(-1.0, 0.0, 0.0, 1.0)
@example(0.0, -1.0, 1.0, 0.0)
def test_condition_A_margins_have_the_sign_of_the_verdict(a11, a12, a21, a22):
    # also times 2^510, where a term of t^2 - 4d can overflow and the node is
    # decided on scaled entries
    for c in (1.0, 2.0**510):
        checks = check_condition_A(_linear_samples(Mat2(a11 * c, a12 * c, a21 * c, a22 * c)))
        assert (checks.a.margin >= 0.0) is checks.a.holds_on_window
        assert (checks.b.margin > 0.0) is checks.b.holds_on_window
        assert (checks.c.margin >= 0.0) is checks.c.holds_on_window
        for verdict in checks.as_list():
            assert (verdict.witness is None) is verdict.holds_on_window


def test_condition_A_margins_have_the_sign_of_the_verdict_on_the_gallery():
    for name in list_entries():
        entry = get(name)
        sample = GridSample(entry.map, entry.window.with_grid(21))
        if orientation(sample).kind != ORIENTATION_PRESERVING:
            continue
        checks = check_condition_A(sample_spectrum(sample))
        assert (checks.a.margin >= 0.0) is checks.a.holds_on_window
        assert (checks.b.margin > 0.0) is checks.b.holds_on_window
        assert (checks.c.margin >= 0.0) is checks.c.holds_on_window


def test_condition_B_margins():
    samples = sample_spectrum(GridSample(get("A1").map, Region(-5, 5, -5, 5)))
    verdict = check_condition_B(samples)
    assert verdict.condition == COND_B_TRACE
    assert verdict.holds_on_window
    assert verdict.margin == pytest.approx(3.0)

    samples = sample_spectrum(GridSample(get("B").map, Region(-3, 3, -3, 3)))
    verdict = check_condition_B(samples)
    assert verdict.holds_on_window
    assert verdict.margin > 1.0

    samples = sample_spectrum(GridSample(parse("(x, -y)"), Region(-5, 5, -5, 5)))
    assert check_condition_B(samples).margin == pytest.approx(3.0)


@pytest.mark.parametrize("name,expected", [
    ("A1", "Theorem B"),
    ("A2", "Theorem A(c)"),
    ("A3", "Theorem B"),
    ("A4", "Theorem A(c)"),
    ("B", "Theorem B"),
    ("identity", "Theorem A(a)"),
    ("minus-identity", "Theorem A(c)"),
    ("flip-y", "Theorem B"),
])
def test_verdict_matrix(name, expected):
    entry = get(name)
    assessment = theorem_verdict(GridSample(entry.map, entry.window))
    assert assessment.linearizable_on_window
    assert expected in assessment.verdict
    assert "[" in assessment.verdict  # window-qualified


def test_verdict_rotation_blend_negative():
    entry = get("C")
    assessment = theorem_verdict(GridSample(entry.map, Region(-6, 6, -6, 6)))
    assert not assessment.linearizable_on_window
    assert "no hypothesis verified" in assessment.verdict
    assert "Theorem A(b) violated" in assessment.verdict


def test_verdict_gap_on_a_conjugate_of_minus_identity():
    # -I conjugated by g(x, y) = (X, y + X^2), X = x + y^2: an involution with
    # complex spectrum, which avoids 1 on the small window and meets it on
    # the large one
    m = parse("(-(x + y^2) - (y + 2*(x + y^2)^2)^2, -y - 2*(x + y^2)^2)")
    assessment = theorem_verdict(GridSample(m, Region(-0.5, 0.5, -0.5, 0.5, 21)))
    gap = assessment.conditions[1]
    assert assessment.linearizable_on_window
    assert not assessment.conditions[2].holds_on_window
    assert assessment.verdict == (
        "Theorem A(b) applies on [-0.5, 0.5] x [-0.5, 0.5] "
        f"(1 is never an eigenvalue; distance to the spectrum {gap.margin:g})")
    assert 0.9 < gap.margin < 1.0
    assessment = theorem_verdict(GridSample(m, Region(-1, 1, -1, 1, 21)))
    assert not assessment.linearizable_on_window
    assert "Theorem A(b) violated" in assessment.verdict


def test_spectrum_continuity_on_window():
    # eigenvalues move at most proportionally to the Jacobian's own drift
    entry = get("B")
    region = Region(-3, 3, -3, 3, 21)
    samples = sample_spectrum(GridSample(entry.map, region))
    n = region.grid_n
    jacs = [value_and_jacobian(entry.map, s.point)[1] for s in samples]
    for row in range(n):
        for col in range(n - 1):
            i = row * n + col
            a, b = samples[i], samples[i + 1]
            drift = (jacs[i + 1] - jacs[i]).max_abs()
            gap = max(
                abs(a.spectrum.lambda1 - b.spectrum.lambda1),
                abs(a.spectrum.lambda2 - b.spectrum.lambda2),
            )
            # coarse sanity bound: 2x2 eigenvalues move by at most
            # O(perturbation + sqrt(perturbation)) on this scale
            assert gap <= 10.0 * (drift + math.sqrt(drift) + 1e-12)
