import math

import pytest

from planarinv.expr import parse
from planarinv.gallery import get
from planarinv.involution import GridSample, Region
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
        assert s.spectrum.as_pair() == (1.0 + 0j, 1.0 + 0j)


def test_condition_A_even_shear():
    samples = sample_spectrum(GridSample(get("A2").map, Region(-5, 5, -5, 5)))
    checks = check_condition_A(samples, epsilon=0.5)
    assert not checks.a.holds_on_window
    assert checks.a.witness is not None
    assert checks.b.holds_on_window
    assert checks.b.margin == pytest.approx(2.0)  # dist(-1, [1, 1.5])
    assert checks.c.holds_on_window


def test_condition_A_identity():
    samples = sample_spectrum(GridSample(parse("(x, y)"), Region(-5, 5, -5, 5)))
    checks = check_condition_A(samples)
    assert checks.a.holds_on_window


def test_condition_A_real_negative_spectrum_passes_b_for_any_epsilon():
    samples = sample_spectrum(GridSample(get("A4").map, Region(-5, 5, -5, 5)))
    for eps in (0.1, 1.0, 100.0):
        assert check_condition_A(samples, epsilon=eps).b.holds_on_window


def test_condition_A_rotation_blend_fails_with_unit_witness():
    entry = get("C")
    samples = sample_spectrum(GridSample(entry.map, Region(-6, 6, -6, 6)))
    checks = check_condition_A(samples, epsilon=0.1)
    assert not checks.a.holds_on_window
    assert not checks.b.holds_on_window
    assert not checks.c.holds_on_window
    w = checks.b.witness
    assert abs(w.spectrum.lambda1 - 1.0) <= 1e-12
    assert abs(w.spectrum.lambda2 - 1.0) <= 1e-12


@pytest.mark.parametrize("epsilon", [0.0, -0.0, -1.0, math.nan, math.inf])
def test_condition_A_rejects_an_epsilon_that_is_not_positive_and_finite(epsilon):
    samples = sample_spectrum(GridSample(get("C").map, Region(-6, 6, -6, 6, 5)))
    with pytest.raises(ValueError, match="epsilon must be a finite number > 0"):
        check_condition_A(samples, epsilon)


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


def test_spectrum_continuity_on_window():
    # eigenvalues move at most proportionally to the Jacobian's own drift
    entry = get("B")
    region = Region(-3, 3, -3, 3, 21)
    samples = sample_spectrum(GridSample(entry.map, region))
    n = region.grid_n
    jacs = [entry.map.evaluate_with_jacobian(s.point)[1] for s in samples]
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
