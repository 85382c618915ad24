"""The continuation in ``trace_leaf`` against the code it replaced.

Each inversion of a march now starts from the h and Dh that the previous
inversion returned, and the leaf residuals read h from them.  The reference
below is the earlier ``trace_leaf``, which evaluated h afresh at every
Newton start and every residual: the leaves must come out the same,
compared by ``repr`` so that every float counts bit for bit.
"""

import math

from planarinv import foliation
from planarinv.expr import EvaluationError, parse
from planarinv.foliation import (
    RADIAL,
    InversionError,
    Leaf,
    _angle_gap,
    _eigen_grid,
    _vertical_anchor,
    _window_gap,
    default_leaf_parameters,
    diagonalize_involution,
    trace_leaf,
    trace_leaves,
)
from planarinv.gallery import get, list_entries
from planarinv.involution import Region
from planarinv.linearize import StandardMap, standard_map

# (x + y^3/3, -y) and the -I map divide a subexpression of x and y by 3, so
# their leaf residuals hold only if the Jacobian path's values round as
# evaluate's do
_NON_EXACT = (
    "(x + y^3/3, -y)",
    "(-x + (x+y)^2/3, -y - (x+y)^2/3)",
)
_SMALL = Region(-1.0, 1.0, -1.0, 1.0)


# ----------------------------------------------------------------------
# reference: the trace_leaf that evaluated h at every start
# ----------------------------------------------------------------------

def _ref_invert(h, target, guess, tol, max_iter, stats):
    p = (float(guess[0]), float(guess[1]))
    for _ in range(max_iter + 1):
        try:
            e = h.evaluate_with_jacobian(p)
        except EvaluationError as exc:
            raise InversionError(str(exc), p) from exc
        assert repr(e[6:]) == repr(h.base.evaluate(p))  # phi(p), bit for bit
        hx, hy, a11, a12, a21, a22 = e[:6]
        rx, ry = target[0] - hx, target[1] - hy
        if math.hypot(rx, ry) <= tol:
            return p
        det = a11 * a22 - a12 * a21
        scale = max(abs(a11), abs(a12), abs(a21), abs(a22))
        if abs(det) <= 1e-14 * max(scale * scale, 1e-30):
            stats["failures"] += 1
            raise InversionError("singular Jacobian during inversion", p)
        nx = p[0] + (rx * a22 - a12 * ry) / det
        ny = p[1] + (a11 * ry - a21 * rx) / det
        if not (math.isfinite(nx) and math.isfinite(ny)):
            stats["failures"] += 1
            raise InversionError("inversion iterate became non-finite", p)
        p = (nx, ny)
    stats["failures"] += 1
    raise InversionError(f"no convergence after {max_iter} iterations", p)


def _ref_trace_leaf(h, fol, parameter, region, grid, stats, step=1e-2,
                    inversion_tol=1e-10, max_iter=50, max_points=20000):
    if fol.kind == RADIAL:
        angle = float(parameter)
        ca, sa = math.cos(angle), math.sin(angle)

        def target_at(t):
            return (t * ca, t * sa)

        def residual_at(p):
            hx, hy = h.evaluate(p)
            return _angle_gap(math.atan2(hy, hx), angle)

        t0 = 1e-3
        guess0 = target_at(t0)
        directions = (1.0,)
    else:
        c = float(parameter)
        s = fol.change_of_basis
        s_inv = s.inverse()

        def target_at(t):
            return s_inv.apply((c, t))

        def residual_at(p):
            w = s.apply(h.evaluate(p))
            return abs(w[0] - c)

        t0, guess0 = _vertical_anchor(grid, c)
        directions = (1.0, -1.0)

    try:
        p0 = _ref_invert(h, target_at(t0), guess0, inversion_tol, max_iter, stats)
    except InversionError:
        return Leaf(parameter, [], [], truncated=True)
    p0_inside = region.contains(p0)

    truncated = False
    branches = []
    for direction in directions:
        pts = []
        t = t0
        p_prev = p0
        step_cur = step
        halvings = 0
        entered = p0_inside
        pre_steps = 0
        approach_stalls = 0
        last_gap = _window_gap(region, p0)
        while len(pts) < max_points:
            t_next = t + direction * step_cur
            try:
                p = _ref_invert(h, target_at(t_next), p_prev, inversion_tol, max_iter, stats)
            except InversionError:
                halvings += 1
                stats["halvings"] += 1
                if halvings > 10:
                    truncated = True
                    break
                step_cur *= 0.5
                continue
            inside = region.contains(p)
            if not entered:
                if inside:
                    entered = True
                    pts.append(p)
                else:
                    gap = _window_gap(region, p)
                    approach_stalls = approach_stalls + 1 if gap >= last_gap else 0
                    last_gap = gap
                    pre_steps += 1
                    if approach_stalls > 25 or pre_steps > 2000:
                        break
            else:
                pts.append(p)
                if not inside:
                    break
            t = t_next
            p_prev = p
        else:
            truncated = True
        branches.append(pts)

    seedpts = [p0] if p0_inside else []
    if fol.kind == RADIAL:
        points = seedpts + branches[0]
    else:
        points = list(reversed(branches[1])) + seedpts + branches[0]
    residuals = [residual_at(p) for p in points]
    return Leaf(parameter, points, residuals, truncated)


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------

def _gallery_cases():
    for name in list_entries():
        if name != "identity":  # no canonical foliation
            entry = get(name)
            yield name, entry.map, entry.window
    for name in ("A2", "A4"):  # recentered at a fixed point off the origin
        entry = get(name, 0)
        yield f"{name}:0", entry.map, entry.window


def _trace_both(planar_map, region, parameter=None, step=1e-2):
    """The library's leaves and the reference's: the default family from
    ``trace_leaves``, or the one leaf of ``parameter`` from ``trace_leaf``."""
    h = standard_map(planar_map)
    fol = diagonalize_involution(h.linear_part)
    grid = None if fol.kind == RADIAL else _eigen_grid(h, fol.change_of_basis, region)
    if parameter is None:
        parameters = default_leaf_parameters(fol, grid)
        leaves = trace_leaves(h, fol, region, step)
    else:
        parameters = [parameter]
        leaves = [trace_leaf(h, fol, parameter, region, step)]
    stats = {"failures": 0, "halvings": 0}
    reference = [_ref_trace_leaf(h, fol, c, region, grid, stats, step) for c in parameters]
    return leaves, reference, stats


def test_gallery_leaves_match_the_reference_trace():
    for name, planar_map, window in _gallery_cases():
        leaves, reference, _ = _trace_both(planar_map, window)
        assert repr(leaves) == repr(reference), name


def test_non_exact_maps_match_the_reference_trace():
    for source in _NON_EXACT:
        planar_map = parse(source)
        leaves, reference, _ = _trace_both(planar_map, _SMALL)
        assert repr(leaves) == repr(reference), source


def test_truncated_leaf_matches_the_reference_trace():
    # on the collapsed rotation blend C the plateau defeats every halving
    leaves, reference, stats = _trace_both(get("C").map, Region(-6, 6, -6, 6),
                                           math.pi / 4)
    assert repr(leaves) == repr(reference)
    assert leaves[0].truncated and leaves[0].points
    assert stats["halvings"] == 11


def test_leaves_that_recover_from_halvings_match_the_reference_trace():
    # on B, steps of 2 are too long for some inversions; halving recovers
    entry = get("B")
    leaves, reference, stats = _trace_both(entry.map, entry.window, step=2.0)
    assert repr(leaves) == repr(reference)
    assert stats["halvings"] > 0
    assert not any(leaf.truncated for leaf in leaves)


# ----------------------------------------------------------------------
# the work the continuation saves, and where it makes its inversions
# ----------------------------------------------------------------------

def test_h_jacobian_is_never_taken_twice_in_a_row_at_one_point(monkeypatch):
    calls = []
    original = StandardMap.evaluate_with_jacobian

    def recording(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(StandardMap, "evaluate_with_jacobian", recording)
    for name, planar_map, window in _gallery_cases():
        calls.clear()
        h = standard_map(planar_map)
        fol = diagonalize_involution(h.linear_part)
        trace_leaves(h, fol, window)
        assert calls, name
        repeats = sum(1 for a, b in zip(calls, calls[1:]) if a == b)
        assert repeats == 0, name


def test_trace_leaf_inverts_through_the_module_level_name(monkeypatch):
    entry = get("B")
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    expected = trace_leaf(h, fol, 0.5, entry.window)
    seen = []
    original = foliation.invert_standard_map

    def counting(*args, **kwargs):
        seen.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(foliation, "invert_standard_map", counting)
    leaf = trace_leaf(h, fol, 0.5, entry.window)
    assert repr(leaf) == repr(expected)
    # one inversion for the start, then at least one per point past it
    assert len(seen) >= len(leaf.points)
