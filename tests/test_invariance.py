"""``leaf_invariance_check`` against the check it replaced.

The check now evaluates phi twice per leaf point: at q, taking h(q) from
phi(q) with ``StandardMap.from_value``, and at phi(q), inside
``StandardMap.evaluate``.  The reference below is the earlier check, which
evaluated phi three times per point (inside h(q), for phi(q), and inside
h(phi(q))): the residuals must come out the same, compared by ``repr`` so
that every float counts bit for bit.  ``trace_leaf`` takes the same check
during its march, from the h(q) and phi(q) of each inversion, and keeps it
as ``Leaf.invariance``, which must equal the check on the finished leaf.
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
from planarinv.linearize import StandardMap, standard_map
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
    # once by PlanarMap.evaluate at q, once inside StandardMap.evaluate at phi(q)
    calls = []
    original, original_h = PlanarMap.evaluate, StandardMap.evaluate

    def counting(self, p):
        calls.append(("phi", p))
        return original(self, p)

    def counting_h(self, p):
        calls.append(("h", p))
        return original_h(self, p)

    for name, planar_map, window in _gallery_cases():
        h, fol, leaves = _leaves(planar_map, window)
        monkeypatch.setattr(PlanarMap, "evaluate", counting)
        monkeypatch.setattr(StandardMap, "evaluate", counting_h)
        for leaf in leaves:
            calls.clear()
            leaf_invariance_check(h, fol, leaf)
            images = [original(planar_map, q) for q in leaf.points]
            assert len(calls) == 2 * len(leaf.points), name
            # at q, then h at phi(q)
            assert calls[::2] == [("phi", q) for q in leaf.points], name
            assert calls[1::2] == [("h", fq) for fq in images], name
        monkeypatch.undo()


# ----------------------------------------------------------------------
# the check that the march takes
# ----------------------------------------------------------------------

def test_the_march_keeps_the_check_of_each_leaf():
    cases = list(_gallery_cases())
    cases += [(source, parse(source), _SMALL) for source in _NON_EXACT]
    cases.append((_NOT_INVOLUTION, parse(_NOT_INVOLUTION), _NOT_INVOLUTION_WINDOW))
    for name, planar_map, window in cases:
        h, fol, leaves = _leaves(planar_map, window)
        assert leaves, name
        for i, leaf in enumerate(leaves):
            assert repr(leaf.invariance) == repr(leaf_invariance_check(h, fol, leaf)), (name, i)
    # the map that is no involution keeps residuals far from 0
    assert min(leaf.invariance for leaf in leaves) > 1e-5


def test_trace_leaves_evaluates_no_planar_map(monkeypatch):
    # h, Dh and phi(q) come from StandardMap's kernels, not PlanarMap's methods
    calls = []

    def counting(name, original):
        def wrapped(self, p):
            calls.append(name)
            return original(self, p)
        return wrapped

    for name, planar_map, window in _gallery_cases():
        h = standard_map(planar_map)
        fol = diagonalize_involution(h.linear_part)
        for method in ("evaluate", "evaluate_with_jacobian"):
            monkeypatch.setattr(PlanarMap, method, counting(method, getattr(PlanarMap, method)))
        leaves = trace_leaves(h, fol, window)
        monkeypatch.undo()
        assert leaves and any(leaf.points for leaf in leaves), name
        assert calls == [], name
