import math

import numpy as np
import pytest

from planarinv.gallery import example_c_map, get, list_entries
from planarinv.involution import GridSample, verify_involution
from planarinv.linalg2 import IDENTITY
from planarinv.linearize import standard_map
from planarinv.spectral import theorem_verdict


def test_listing():
    names = list_entries()
    assert len(names) == 9
    assert "A1" in names and "C" in names
    assert "D" not in names


def test_unknown_entry():
    with pytest.raises(KeyError):
        get("Z9")
    with pytest.raises(KeyError) as err:
        get("D")
    assert "existence" in str(err.value)


def test_parameter_validation():
    with pytest.raises(ValueError):
        get("A1", -1)
    with pytest.raises(ValueError):
        get("B", 2)


def test_entry_a1_formulas():
    entry = get("A1", 1)
    assert entry.map.evaluate((1.0, 2.0)) == (-7.0, -2.0)
    assert entry.known_h(2.0, 2.0) == (-2.0, 2.0)
    assert "2*x - y^3" in entry.foliation_equation


def test_every_entry_is_an_involution_on_its_window():
    for name in list_entries():
        ns = (0, 1, 2) if name in ("A1", "A2", "A3", "A4") else (None,)
        for n in ns:
            entry = get(name, n)
            check = verify_involution(GridSample(entry.map, entry.window), 1e-9)
            assert check.passed, (name, n, check.max_residual)


def test_recentering_of_degenerate_degrees():
    entry = get("A2", 0)
    assert entry.recentered_at == pytest.approx((0.5, 0.0), abs=1e-9)
    assert entry.map.evaluate((0.0, 0.0)) == pytest.approx((0.0, 0.0), abs=1e-12)
    # recentered A2:0 is the point reflection
    assert entry.map.evaluate((1.0, 2.0)) == pytest.approx((-1.0, -2.0), abs=1e-12)

    entry = get("A4", 0)
    assert entry.recentered_at == pytest.approx((0.5, -0.5), abs=1e-9)
    assert entry.map.evaluate((0.0, 0.0)) == pytest.approx((0.0, 0.0), abs=1e-12)

    assert get("A2", 1).recentered_at is None


def test_standard_map_regression_closed_forms():
    rng = np.random.default_rng(31)
    for name in ("A1", "A2"):
        entry = get(name, 1)
        h = standard_map(entry.map)
        for _ in range(1000):
            p = tuple(rng.uniform(-5, 5, 2))
            expected = entry.known_h(*p)
            got = h.evaluate(p)
            assert abs(got[0] - expected[0]) <= 1e-12
            assert abs(got[1] - expected[1]) <= 1e-12


def test_rotation_blend_plateau_translation():
    psi = example_c_map()
    assert psi.evaluate((3.0, 3.0)) == (-3.0, -3.0)
    rng = np.random.default_rng(19)
    for _ in range(200):
        angle = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(0, 1.0)
        p = (3.0 + radius * math.cos(angle), 3.0 + radius * math.sin(angle))
        q = psi.evaluate(p)
        assert q == pytest.approx((p[0] - 6.0, p[1] - 6.0), abs=1e-12)


def test_rotation_blend_is_minus_identity_far_out():
    psi = example_c_map()
    assert psi.evaluate((10.0, 0.0)) == (-10.0, 0.0)
    assert psi.evaluate((0.0, 0.0)) == (0.0, 0.0)


def test_rotation_blend_involution_at_random_points():
    psi = example_c_map()
    rng = np.random.default_rng(27)
    worst = 0.0
    for _ in range(10000):
        p = tuple(rng.uniform(-8, 8, 2))
        q = psi.evaluate(psi.evaluate(p))
        worst = max(worst, math.hypot(q[0] - p[0], q[1] - p[1]) / (1 + math.hypot(*p)))
    assert worst <= 1e-9


def test_rotation_blend_unit_jacobian_inside_plateau():
    psi = example_c_map()
    rng = np.random.default_rng(29)
    for _ in range(100):
        angle = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(0, 0.999)
        p = (3.0 + radius * math.cos(angle), 3.0 + radius * math.sin(angle))
        _, jac = psi.evaluate_with_jacobian(p)
        assert (jac - IDENTITY).max_abs() <= 1e-9


def test_expected_verdicts_hold():
    for name in list_entries():
        entry = get(name)
        assessment = theorem_verdict(GridSample(entry.map, entry.window))
        assert assessment.orientation.kind == entry.orientation
        if entry.expected_verdict == "none":
            assert not assessment.linearizable_on_window
        else:
            assert entry.expected_verdict in assessment.verdict
