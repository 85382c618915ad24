"""``leaf_invariance_check`` against the check it replaced.

The check now evaluates phi twice per leaf point: at q, taking h(q) from
phi(q) with ``StandardMap.from_value``, and at phi(q).  The reference below
is the earlier check, which evaluated phi three times per point (inside
h(q), for phi(q), and inside h(phi(q))): the residuals must come out the
same, compared by ``repr`` so that every float counts bit for bit.
"""

import math

from planarinv.expr import PlanarMap, parse
from planarinv.foliation import (
    VERTICAL,
    _angle_gap,
    diagonalize_involution,
    leaf_invariance_check,
    trace_leaves,
)
from planarinv.gallery import get
from planarinv.involution import Region
from planarinv.linearize import standard_map
from test_continuation import _NON_EXACT, _SMALL

# not an involution: phi(phi(q)) != q, so the residuals are far from 0
_NOT_INVOLUTION = "(x + y^2, -y)"
_NOT_INVOLUTION_WINDOW = Region(-2.0, 2.0, -2.0, 2.0)


# ----------------------------------------------------------------------
# reference: the check that evaluated phi three times per point
# ----------------------------------------------------------------------

def _ref_invariance_check(planar_map, h, fol, leaf):
    worst = 0.0
    if fol.kind == VERTICAL:
        s = fol.change_of_basis
        for q in leaf.points:
            w_q = s.apply(h.evaluate(q))
            w_fq = s.apply(h.evaluate(planar_map.evaluate(q)))
            worst = max(worst, abs(w_fq[0] - w_q[0]))
        return worst
    for q in leaf.points:
        hx, hy = h.evaluate(q)
        if math.hypot(hx, hy) < 1e-6:
            continue
        gx, gy = h.evaluate(planar_map.evaluate(q))
        worst = max(worst, _angle_gap(math.atan2(gy, gx), math.atan2(-hy, -hx)))
    return worst


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------

def _gallery_cases():
    """Every gallery entry with a foliation, A1-A4 at n = 0, 1 and 2."""
    for name in ("A1", "A2", "A3", "A4"):
        for n in (0, 1, 2):
            entry = get(name, n)
            yield f"{name}:{n}", entry.map, entry.window
    for name in ("B", "C", "minus-identity", "flip-y"):
        entry = get(name)
        yield name, entry.map, entry.window


def _leaves(planar_map, region):
    """The default family, traced as ``foliate`` traces it (with or
    without a certificate)."""
    h = standard_map(planar_map)
    fol = diagonalize_involution(h.linear_part)
    return h, fol, trace_leaves(h, fol, region)


def _assert_matches_reference(planar_map, region, label):
    h, fol, leaves = _leaves(planar_map, region)
    assert leaves, label
    residuals = []
    for i, leaf in enumerate(leaves):
        got = leaf_invariance_check(h, fol, leaf)
        assert repr(got) == repr(_ref_invariance_check(planar_map, h, fol, leaf)), (label, i)
        residuals.append(got)
    return residuals


def test_gallery_residuals_match_the_reference_check():
    for name, planar_map, window in _gallery_cases():
        _assert_matches_reference(planar_map, window, name)


def test_non_exact_residuals_match_the_reference_check():
    for source in _NON_EXACT:
        _assert_matches_reference(parse(source), _SMALL, source)


def test_residuals_of_a_map_that_is_no_involution_match_the_reference_check():
    # traced without a certificate, as foliate --force does; h(q) taken from
    # phi(q) must still be h(q), where h(phi(q)) is not Dphi(0) h(q)
    residuals = _assert_matches_reference(parse(_NOT_INVOLUTION), _NOT_INVOLUTION_WINDOW,
                                          _NOT_INVOLUTION)
    assert min(residuals) > 1e-5
    assert max(residuals) > 1.0


# ----------------------------------------------------------------------
# the work the check saves
# ----------------------------------------------------------------------

def test_phi_is_evaluated_twice_per_leaf_point(monkeypatch):
    calls = []
    original = PlanarMap.evaluate

    def counting(self, p):
        calls.append(p)
        return original(self, p)

    for name, planar_map, window in _gallery_cases():
        h, fol, leaves = _leaves(planar_map, window)
        monkeypatch.setattr(PlanarMap, "evaluate", counting)
        for leaf in leaves:
            calls.clear()
            leaf_invariance_check(h, fol, leaf)
            assert len(calls) == 2 * len(leaf.points), name
            # at q, then at phi(q)
            assert calls[::2] == leaf.points, name
        monkeypatch.setattr(PlanarMap, "evaluate", original)
