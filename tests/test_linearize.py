import math
from types import SimpleNamespace

import numpy as np
import pytest
from matrices import value_and_jacobian

from planarinv.expr import ExprNode, PlanarMap, parse
from planarinv.gallery import get, list_entries
from planarinv.involution import BasePointError, GridSample, Region
from planarinv.linalg2 import Mat2
from planarinv.linearize import (
    COLLISION,
    NO_COLLISION_FOUND,
    NotApplicableError,
    conjugacy_residual,
    injectivity_scan,
    spectrum_shift_check,
    standard_map,
    theorem_B_jacobian_check,
)
from planarinv.spectral import check_condition_B, sample_spectrum


def test_standard_map_closed_form_shear():
    h = standard_map(get("A1").map)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x, y = rng.uniform(-5, 5, 2)
        hx, hy = h.evaluate((x, y))
        assert hx == pytest.approx(x - y**3 / 2, rel=1e-13, abs=1e-13)
        assert hy == y


def test_standard_map_of_minus_identity_is_identity():
    h = standard_map(parse("(-x, -y)"))
    assert h.evaluate((3.0, -4.0)) == (3.0, -4.0)


def test_standard_map_stays_finite_where_p_plus_the_image_overflows():
    # h is the identity for these maps; p + Dphi(0) phi(p) = 2p overflows on
    # this window, so h is halved term by term on all three paths
    window = Region(1.3e308, 1.7e308, 1.3e308, 1.7e308, 3)
    xs, ys = window.xs(), window.ys()
    for source in ("(-x, -y)", "(x, -y)", "(-y, -x)"):
        h = standard_map(parse(source))
        for p in window.nodes():
            assert h.evaluate(p) == p, source
            assert h.evaluate_with_jacobian(p)[:2] == p, source
        us, vs, error = h.evaluate_grid(xs, ys)
        assert error is None, source
        assert list(zip(us, vs)) == list(window.nodes()), source


def test_standard_map_fixes_origin_with_identity_derivative():
    for name in list_entries():
        entry = get(name)
        h = standard_map(entry.map)
        assert math.hypot(*h.evaluate((0.0, 0.0))) <= 1e-12
        _, dh = value_and_jacobian(h, (0.0, 0.0))
        assert (dh - Mat2(1, 0, 0, 1)).max_abs() <= 1e-9


def test_standard_map_requires_fixed_origin():
    with pytest.raises(BasePointError):
        standard_map(parse("(-x + 1, -y)"))


def test_standard_map_collapses_rotation_blend_plateau():
    h = standard_map(get("C").map)
    rng = np.random.default_rng(8)
    for _ in range(100):
        angle = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(0, 1)
        p = (3.0 + radius * math.cos(angle), 3.0 + radius * math.sin(angle))
        assert h.evaluate(p) == pytest.approx((3.0, 3.0), abs=1e-12)


def _composed(h):
    """h = (p + Dphi(0) phi(p))/2 as one expression map, from phi's trees."""
    u, v = h.base.asts
    a = h.linear_part

    def row(x, a1, a2):
        return ExprNode("mul", (ExprNode("add", (ExprNode("add", (x, _scaled(a1, u))),
                                                 _scaled(a2, v))), ExprNode("num", value=0.5)))

    return PlanarMap.from_expressions(row(ExprNode("x"), a.a11, a.a12),
                                      row(ExprNode("y"), a.a21, a.a22), "composed")


def _scaled(c, tree):
    return ExprNode("mul", (ExprNode("num", value=c), tree))


def test_jacobian_formula_matches_propagation_route():
    for name in ("A1", "B", "C"):
        entry = get(name)
        h = standard_map(entry.map)
        as_map = _composed(h)
        rng = np.random.default_rng(9)
        for _ in range(100):
            p = (rng.uniform(entry.window.x_min, entry.window.x_max),
                 rng.uniform(entry.window.y_min, entry.window.y_max))
            _, formula = value_and_jacobian(h, p)
            _, propagated = value_and_jacobian(as_map, p)
            assert (formula - propagated).max_abs() <= 1e-10


def test_conjugacy_residual_hand_checked():
    h = standard_map(get("A1").map)
    assert conjugacy_residual(h, (2.0, -1.0)) == 0.0


def test_conjugacy_residual_positive_for_non_involution():
    m = parse("(x + 1, y)")
    _, linear = value_and_jacobian(m, (0.0, 0.0))
    from planarinv.linearize import StandardMap

    fake_h = StandardMap(m, linear)
    assert conjugacy_residual(fake_h, (0.3, 0.7)) > 0.1


def test_conjugacy_residual_small_on_sinh_involution():
    entry = get("B")
    h = standard_map(entry.map)
    rng = np.random.default_rng(6)
    worst = max(
        conjugacy_residual(h, (rng.uniform(-3, 3), rng.uniform(-3, 3)))
        for _ in range(100)
    )
    assert worst <= 1e-9


def test_injectivity_scan_shear_clean():
    entry = get("A1")
    h = standard_map(entry.map)
    cert = injectivity_scan(h, entry.window, scan_n=201)
    assert cert.status == NO_COLLISION_FOUND
    assert cert.witness_pair is None
    assert cert.cells_checked == 201 * 201


def test_injectivity_scan_detects_plateau_collision():
    h = standard_map(get("C").map)
    cert = injectivity_scan(h, Region(0, 6, 0, 6), scan_n=201,
                            collision_tol=1e-6, separation_min=0.1)
    assert cert.status == COLLISION
    p, q = cert.witness_pair
    assert math.hypot(p[0] - 3, p[1] - 3) <= 1.0 + 1e-9
    assert math.hypot(q[0] - 3, q[1] - 3) <= 1.0 + 1e-9
    assert math.hypot(p[0] - q[0], p[1] - q[1]) >= 0.1


def test_injectivity_scan_constant_map_collides_immediately():
    constant = parse("(0, 0)")
    cert = injectivity_scan(constant, Region(-1, 1, -1, 1), scan_n=11,
                            separation_min=0.01)
    assert cert.status == COLLISION
    assert cert.witness_pair[0] == (-1.0, -1.0)


def test_spectrum_shift_zero_for_even_shears():
    for name in ("A2", "A4"):
        entry = get(name)
        assert spectrum_shift_check(GridSample(entry.map, entry.window)) <= 1e-12


def test_spectrum_shift_requires_minus_identity_linear_part():
    with pytest.raises(NotApplicableError):
        spectrum_shift_check(GridSample(get("A1").map, get("A1").window))


def test_spectrum_shift_brute_force_on_random_matrices():
    # Spc(Dg) = Spc(Dphi) - 1 as characteristic polynomials, on random
    # quadratic maps with Dphi(0) = -I: at every node the residuals of
    # trace(Dg) = t - 2 and det(Dg) = 1 - t + d are a few roundings of the
    # size of the terms of 1 - t + d
    rng = np.random.default_rng(42)
    for _ in range(25):
        a, b, c, d, e, f = (float(v) for v in rng.uniform(-5, 5, 6))
        planar_map = parse(f"(-x + {a!r}*x^2 + {b!r}*x*y + {c!r}*y^2, "
                           f"-y + {d!r}*x^2 + {e!r}*x*y + {f!r}*y^2)")
        assert spectrum_shift_check(GridSample(planar_map, Region(-1, 1, -1, 1, 21))) \
            <= 4 * 2.0**-52


def test_spectrum_shift_residual_is_finite_at_every_node():
    # at the four corners det(Dg) - (1 - t + d) is inf - inf on the raw
    # entries; those nodes are taken on entries scaled by a power of two.  A
    # node's NaN residual makes the result inf (below), so a finite result
    # means every node's residual is finite
    sample = GridSample(parse("(-x + 1e200*y^2, -y + 1e200*x^2)"), Region(-1, 1, -1, 1, 3))
    assert spectrum_shift_check(sample) <= 1e-15
    # and a residual that is NaN is not dropped by the maximum
    nan_node = SimpleNamespace(planar_map=sample.planar_map, ux=[math.nan, -1.0],
                               uy=[0.0, 0.0], vx=[0.0, 0.0], vy=[-1.0, -1.0])
    assert spectrum_shift_check(nan_node) == math.inf


def test_theorem_B_jacobian_bounds():
    entry = get("A1")
    bounds = theorem_B_jacobian_check(GridSample(entry.map, entry.window))
    assert bounds.min_trace == pytest.approx(2.0)
    assert bounds.min_det == pytest.approx(1.0)

    entry = get("B")
    bounds = theorem_B_jacobian_check(GridSample(entry.map, entry.window))
    assert bounds.min_trace > 0.5
    assert bounds.min_det > 0.0

    flip = get("flip-y")
    bounds = theorem_B_jacobian_check(GridSample(flip.map, flip.window))
    assert bounds.min_trace == 2.0 and bounds.min_det == 1.0

    # the products of the entries of Dh overflow both ways (their
    # differences are NaN).  The trace is 1 + Trace(Dphi(0) Dphi(p))/2, about
    # -1e401 where the trace condition fails; det Dh is about +1e800 at every
    # node (by exact rational arithmetic), so its true minimum overflows to inf
    planar_map = parse("(1e200*(-x + y + x^2 - 0.5*x*y), 1e200*(x + 2*y - 4*x*y))")
    sample = GridSample(planar_map, Region(0, 1, -0.01, 0.01, 3))
    bounds = theorem_B_jacobian_check(sample)
    assert bounds.min_trace == -math.inf
    assert bounds.min_det == math.inf
    condition = check_condition_B(sample_spectrum(sample))
    assert not condition.holds_on_window
    assert condition.witness.point == (1.0, -0.01)
