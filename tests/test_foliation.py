import math

import numpy as np
import pytest

from planarinv.expr import parse
from planarinv.foliation import (
    RADIAL,
    VERTICAL,
    InversionError,
    _eigen_grid,
    default_leaf_parameters,
    diagonalize_involution,
    invert_standard_map,
    leaf_invariance_check,
    trace_leaf,
)
from planarinv.gallery import get
from planarinv.involution import Region
from planarinv.linalg2 import IDENTITY, Mat2
from planarinv.linearize import standard_map


def test_diagonalize_already_diagonal():
    fol = diagonalize_involution(Mat2(1, 0, 0, -1))
    assert fol.kind == VERTICAL
    assert (fol.change_of_basis - IDENTITY).max_abs() == 0.0


def test_diagonalize_minus_identity():
    fol = diagonalize_involution(Mat2(-1, 0, 0, -1))
    assert fol.kind == RADIAL
    assert fol.change_of_basis == IDENTITY


def test_diagonalize_identity_has_no_canonical_foliation():
    with pytest.raises(ValueError):
        diagonalize_involution(IDENTITY)


def test_diagonalize_rejects_non_involutions():
    with pytest.raises(ValueError):
        diagonalize_involution(Mat2(2, 0, 0, 2))


def test_diagonalize_sinh_linear_part():
    linear = Mat2(0.5, 0.5, 1.5, -0.5)
    fol = diagonalize_involution(linear)
    assert fol.kind == VERTICAL
    s = fol.change_of_basis
    s_inv = s.inverse()
    # eigencolumns proportional to (1, 1) and (1, -3), unit length
    c1 = (s_inv.a11, s_inv.a21)
    c2 = (s_inv.a12, s_inv.a22)
    assert abs(c1[0] - c1[1]) <= 1e-12
    assert abs(3 * c2[0] + c2[1]) <= 1e-12
    assert math.hypot(*c1) == pytest.approx(1.0)
    assert math.hypot(*c2) == pytest.approx(1.0)
    diag = s @ linear @ s_inv
    assert (diag - Mat2(1, 0, 0, -1)).max_abs() <= 1e-9


def test_invert_standard_map_closed_form():
    h = standard_map(get("A1").map)
    p, entries = invert_standard_map(h, (0.0, 2.0), (0.0, 2.0))
    assert p == pytest.approx((4.0, 2.0), abs=1e-10)
    assert entries == h.evaluate_with_jacobian(p)


def test_invert_standard_map_already_there():
    h = standard_map(get("A1").map)
    target = h.evaluate((1.3, -0.4))
    assert invert_standard_map(h, target, (1.3, -0.4)) == \
        ((1.3, -0.4), h.evaluate_with_jacobian((1.3, -0.4)))


def test_invert_standard_map_random_targets_on_sinh():
    entry = get("B")
    h = standard_map(entry.map)
    rng = np.random.default_rng(12)
    for _ in range(50):
        source = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        target = h.evaluate(source)
        p, entries = invert_standard_map(h, target, (0.0, 0.0))
        assert entries == h.evaluate_with_jacobian(p)
        hx, hy = h.evaluate(p)
        assert math.hypot(hx - target[0], hy - target[1]) <= 1e-10


def test_invert_standard_map_singular_reports_last_iterate():
    from planarinv.linearize import StandardMap

    # base = identity with linear part -I makes h identically zero
    degenerate = StandardMap(parse("(x, y)"), Mat2(-1, 0, 0, -1))
    with pytest.raises(InversionError) as err:
        invert_standard_map(degenerate, (1.0, 1.0), (0.3, 0.4))
    assert err.value.last_iterate == (0.3, 0.4)
    assert "singular" in str(err.value)


def test_invert_standard_map_divergence_reports_last_iterate():
    h = standard_map(get("A1").map)
    with pytest.raises(InversionError) as err:
        invert_standard_map(h, (100.0, 60.0), (0.0, 0.0), max_iter=1)
    assert "no convergence" in str(err.value)
    assert err.value.last_iterate != (0.0, 0.0)


def test_trace_leaf_shear_level_sets():
    entry = get("A1")
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    leaf = trace_leaf(h, fol, 0.5, entry.window)  # through (1, 1): 2x - y^3 = 1
    assert len(leaf.points) > 100
    assert not leaf.truncated
    for x, y in leaf.points:
        assert abs(2 * x - y**3 - 1.0) <= 1e-6
    assert leaf.residual <= 1e-6
    assert len(leaf.point_residuals) == len(leaf.points)


def test_trace_leaf_radial_ray_on_minus_identity():
    entry = get("minus-identity")
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    leaf = trace_leaf(h, fol, 0.0, entry.window)
    assert all(y == 0.0 and x > 0.0 for x, y in leaf.points)


def test_trace_leaf_vertical_on_sinh():
    entry = get("B")
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    s = fol.change_of_basis
    leaf = trace_leaf(h, fol, 0.0, entry.window)
    assert len(leaf.points) > 50
    for p in leaf.points:
        assert abs(s.apply(h.evaluate(p))[0]) <= 1e-6


def test_leaf_invariance_vertical():
    entry = get("A1")
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    leaf = trace_leaf(h, fol, 0.5, entry.window)
    assert leaf_invariance_check(h, fol, leaf) <= 1e-8


def test_leaf_invariance_radial_antipodal():
    entry = get("A2")
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    for angle in (0.0, 0.7, 2.0, 4.5):
        leaf = trace_leaf(h, fol, angle, entry.window)
        assert leaf_invariance_check(h, fol, leaf) <= 1e-8


def test_distinct_leaves_stay_separated():
    entry = get("A1")
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    s = fol.change_of_basis
    params = [0.0, 1.0, 2.0]
    for c, d in zip(params, params[1:]):
        leaf_c = trace_leaf(h, fol, c, entry.window)
        leaf_d = trace_leaf(h, fol, d, entry.window)
        cs = [s.apply(h.evaluate(p))[0] for p in leaf_c.points]
        ds = [s.apply(h.evaluate(p))[0] for p in leaf_d.points]
        assert max(cs) < min(ds) - 0.4  # half the parameter spacing, safely


def test_default_leaf_parameters():
    entry = get("A2")
    fol = diagonalize_involution(standard_map(entry.map).linear_part)
    params = default_leaf_parameters(fol, None)
    assert len(params) == 24
    assert params[0] == 0.0 and params[-1] < 2 * math.pi

    entry = get("A1")
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    grid = _eigen_grid(h, fol.change_of_basis, entry.window)
    params = default_leaf_parameters(fol, grid)
    assert len(params) == 21
    firsts = [w[0] for w, _ in grid]
    lo, hi = min(firsts), max(firsts)
    assert params[0] == lo and params[-1] == hi
    assert lo == pytest.approx(-67.5) and hi == pytest.approx(67.5)
    assert default_leaf_parameters(fol, grid, 1) == [(lo + hi) / 2.0]


def test_truncated_leaf_on_collapsed_map():
    # tracing the rotation blend without a certificate: the plateau kills
    # Newton inversion and leaves come back truncated, not fatal
    entry = get("C")
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    leaf = trace_leaf(h, fol, math.pi / 4, Region(-6, 6, -6, 6))
    assert leaf.truncated or len(leaf.points) > 0


def test_invert_standard_map_turns_non_finite_samples_into_inversion_error():
    from planarinv.linearize import StandardMap

    h = StandardMap(parse("(x + 0*y^999, -y)"), Mat2(1, 0, 0, -1))
    with pytest.raises(InversionError) as err:
        invert_standard_map(h, (0.0, 4.0), (0.0, 4.0))
    assert err.value.last_iterate == (0.0, 4.0)
    assert "non-finite" in str(err.value)
