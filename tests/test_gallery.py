import math

import numpy as np
import pytest
from matrices import value_and_jacobian
from treewalk import Dual, entries, evaluate_node, seed

from planarinv.gallery import get, list_entries
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


def _angles(tree):
    """The angle subtrees of entry C: the arguments of its cos nodes."""
    found, stack = {}, [tree]
    while stack:
        node = stack.pop()
        if node.kind == "cos":
            found[id(node.children[0])] = node.children[0]
        stack.extend(node.children)
    return list(found.values())


def test_rotation_blend_plateau_translation():
    psi = get("C").map
    assert psi.evaluate((3.0, 3.0)) == (-3.0, -3.0)
    rng = np.random.default_rng(19)
    for _ in range(200):
        angle = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(0, 1.0)
        p = (3.0 + radius * math.cos(angle), 3.0 + radius * math.sin(angle))
        q = psi.evaluate(p)
        assert q == pytest.approx((p[0] - 6.0, p[1] - 6.0), abs=1e-12)
    # exactly: on the unit disk about (-3, -3) the angles are 0 and pi, on
    # the one about (3, 3) -pi and 0
    entry = get("C")
    angles = _angles(entry.map.asts[0])
    on_plateau = 0
    for p in entry.window.with_grid(201).nodes():
        for center, thetas in ((-3.0, [0.0, math.pi]), (3.0, [-math.pi, 0.0])):
            if (p[0] - center) ** 2 + (p[1] - center) ** 2 <= 1.0:
                on_plateau += 1
                assert sorted(evaluate_node(theta, *p) for theta in angles) == thetas
    assert on_plateau > 1000


def test_rotation_blend_is_minus_identity_far_out():
    psi = get("C").map
    assert psi.evaluate((10.0, 0.0)) == (-10.0, 0.0)
    assert psi.evaluate((0.0, 0.0)) == (0.0, 0.0)
    # bit for bit -p, signed zeros included, outside both disks of radius sqrt(2)
    outside = [p for p in get("C").window.with_grid(201).nodes()
               if min((p[0] - 3.0) ** 2 + (p[1] - 3.0) ** 2,
                      (p[0] + 3.0) ** 2 + (p[1] + 3.0) ** 2) >= 2.0]
    assert len(outside) > 30000
    for p in outside:
        assert repr(psi.evaluate(p)) == repr((-p[0], -p[1]))
        assert psi.evaluate_with_jacobian(p)[2:] == (-1.0, 0.0, 0.0, -1.0)


def test_rotation_blend_involution_at_random_points():
    psi = get("C").map
    rng = np.random.default_rng(27)
    worst = 0.0
    for _ in range(10000):
        p = tuple(rng.uniform(-8, 8, 2))
        q = psi.evaluate(psi.evaluate(p))
        worst = max(worst, math.hypot(q[0] - p[0], q[1] - p[1]) / (1 + math.hypot(*p)))
    assert worst <= 1e-9


def test_rotation_blend_unit_jacobian_inside_plateau():
    psi = get("C").map
    rng = np.random.default_rng(29)
    for _ in range(100):
        angle = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(0, 0.999)
        p = (3.0 + radius * math.cos(angle), 3.0 + radius * math.sin(angle))
        _, jac = value_and_jacobian(psi, p)
        assert (jac - IDENTITY).max_abs() <= 1e-9


# Entry C as it was first written: with branches, a clamp and a Dual path.
# The gallery builds it as one branch-free expression; this is its reference.

def _value_of(v):
    return v.value if isinstance(v, Dual) else float(v)


def _clamp(v, lo, hi):
    """Clamp by value; outside the band the result is a constant (flat derivative)."""
    x = _value_of(v)
    if x <= lo:
        return lo
    if x >= hi:
        return hi
    return v


def _bump(t):
    """Smooth profile: pi on [0, 1], 0 beyond 2, C^1 smoothstep between."""
    u = _clamp(2.0 - abs(t), 0.0, 1.0)
    return math.pi * (3.0 * u * u - 2.0 * u * u * u)


def _rotation_blend(x, y):
    """Rotates -p about (3,3) or (-3,-3) by a bump angle; the two bump
    supports are disjoint, so at most one branch is active."""
    qx, qy = -x, -y
    dp = (qx - 3.0) * (qx - 3.0) + (qy - 3.0) * (qy - 3.0)
    if _value_of(dp) < 2.0:
        theta = _bump(dp)
        cx, cy = 3.0, 3.0
    else:
        dm = (qx + 3.0) * (qx + 3.0) + (qy + 3.0) * (qy + 3.0)
        if _value_of(dm) < 2.0:
            theta = -_bump(dm)
            cx, cy = -3.0, -3.0
        else:
            return qx, qy
    ux, uy = qx - cx, qy - cy
    if isinstance(theta, Dual):
        c, s = theta.cos(), theta.sin()
    else:
        c, s = math.cos(theta), math.sin(theta)
    return (cx + c * ux + s * uy, cy - s * ux + c * uy)


def _reference_entries(x, y):
    return entries(*_rotation_blend(*seed(x, y)))


def test_rotation_blend_matches_its_branching_reference():
    # measured maxima on this grid: 8.9e-16 for values, 1.8e-15 for partials
    entry = get("C")
    worst_value = worst_partial = 0.0
    for p in entry.window.with_grid(201).nodes():
        got, want = entry.map.evaluate_with_jacobian(p), _reference_entries(*p)
        assert entry.map.evaluate(p) == got[:2]
        assert _rotation_blend(*p) == want[:2]
        worst_value = max(worst_value, *(abs(a - b) for a, b in zip(got[:2], want[:2])))
        worst_partial = max(worst_partial, *(abs(a - b) for a, b in zip(got[2:], want[2:])))
    assert worst_value <= 2e-15
    assert worst_partial <= 4e-15


def test_expected_verdicts_hold():
    for name in list_entries():
        entry = get(name)
        assessment = theorem_verdict(GridSample(entry.map, entry.window))
        assert assessment.orientation.kind == entry.orientation
        if entry.expected_verdict == "none":
            assert not assessment.linearizable_on_window
        else:
            assert entry.expected_verdict in assessment.verdict
