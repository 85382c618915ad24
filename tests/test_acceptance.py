"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines as
they print).  Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import json
import math

import numpy as np

from planarinv.cli import main as cli_main
from planarinv.foliation import (
    RADIAL,
    VERTICAL,
    diagonalize_involution,
    leaf_invariance_check,
    trace_leaf,
)
from planarinv.gallery import get
from planarinv.involution import GridSample, Region, verify_involution
from planarinv.linalg2 import Mat2, eigenvalues
from planarinv.linearize import (
    COLLISION,
    NO_COLLISION_FOUND,
    conjugacy_residual,
    injectivity_scan,
    spectrum_shift_check,
    standard_map,
)
from planarinv.spectral import check_condition_A, sample_spectrum, theorem_verdict

_BASE_NAMES = ("A1", "A2", "A3", "A4", "B", "C", "identity", "minus-identity", "flip-y")


def _report(num: int, label: str, ok: bool) -> None:
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}")


def _random_points(rng, region, count):
    xs = rng.uniform(region.x_min, region.x_max, count)
    ys = rng.uniform(region.y_min, region.y_max, count)
    return list(zip(xs, ys))


def test_criterion_01_involution_identity():
    worst = 0.0
    ok = True
    for name in _BASE_NAMES:
        ns = (0, 1, 2) if name in ("A1", "A2", "A3", "A4") else (None,)
        for n in ns:
            entry = get(name, n)
            check = verify_involution(GridSample(entry.map, entry.window.with_grid(41)), 1e-9)
            worst = max(worst, check.max_residual)
            ok = ok and check.passed
    _report(1, f"involution identity on default windows (max residual {worst:.2e})", ok)
    assert ok


def test_criterion_02_standard_map_regression():
    rng = np.random.default_rng(2024)
    ok = True
    for name, closed in (("A1", lambda x, y: (x - y**3 / 2, y)),
                         ("A2", lambda x, y: (x - y**2 / 2, y))):
        entry = get(name, 1)
        h = standard_map(entry.map)
        for p in _random_points(rng, entry.window, 1000):
            expected = closed(*p)
            got = h.evaluate(p)
            ok = ok and abs(got[0] - expected[0]) <= 1e-12 \
                and abs(got[1] - expected[1]) <= 1e-12
    _report(2, "standard-map closed forms for A1/A2 (1e-12)", ok)
    assert ok


def test_criterion_03_conjugacy_identity():
    rng = np.random.default_rng(31415)
    worst = 0.0
    for name in _BASE_NAMES:
        entry = get(name)
        h = standard_map(entry.map)
        for p in _random_points(rng, entry.window, 10000):
            worst = max(worst, conjugacy_residual(h, p))
    ok = worst <= 1e-9
    _report(3, f"conjugacy h(phi(p)) = Dphi(0) h(p) (max residual {worst:.2e})", ok)
    assert ok


def test_criterion_04_spectrum_shift():
    worst_grid = 0.0
    for name in ("A2", "A4"):
        entry = get(name)
        worst_grid = max(worst_grid, spectrum_shift_check(GridSample(entry.map, entry.window)))
    ok = worst_grid <= 1e-9

    # independent oracle: characteristic-polynomial roots of both matrices
    rng = np.random.default_rng(271828)
    worst_oracle = 0.0
    for _ in range(10000):
        a, b, c, d = rng.uniform(-5, 5, 4)
        m = np.array([[a, b], [c, d]])
        shifted = m - np.eye(2)
        r1 = np.sort_complex(np.roots([1.0, -np.trace(shifted),
                                       float(np.linalg.det(shifted))]))
        r2 = np.sort_complex(np.roots([1.0, -np.trace(m),
                                       float(np.linalg.det(m))]) - 1.0)
        pair_a = max(abs(r1[0] - r2[0]), abs(r1[1] - r2[1]))
        pair_b = max(abs(r1[0] - r2[1]), abs(r1[1] - r2[0]))
        worst_oracle = max(worst_oracle, min(pair_a, pair_b))
    ok = ok and worst_oracle <= 1e-9
    _report(4, f"spectrum shift (grid {worst_grid:.2e}, oracle {worst_oracle:.2e})", ok)
    assert ok


def test_criterion_05_verdict_matrix():
    ok = True

    for name, min_margin in (("A1", 2.9), ("A3", 2.9)):
        entry = get(name)
        assessment = theorem_verdict(GridSample(entry.map, entry.window))
        cond = assessment.conditions[0]
        ok = ok and cond.holds_on_window and cond.margin >= min_margin \
            and "Theorem B" in assessment.verdict

    entry = get("B")
    assessment = theorem_verdict(GridSample(entry.map, entry.window))
    cond = assessment.conditions[0]
    ok = ok and cond.holds_on_window and cond.margin > 1.0 \
        and "Theorem B" in assessment.verdict

    for name in ("A2", "A4"):
        entry = get(name)
        samples = sample_spectrum(GridSample(entry.map, entry.window))
        checks = check_condition_A(samples)
        ok = ok and checks.c.holds_on_window and checks.b.holds_on_window

    entry = get("identity")
    assessment = theorem_verdict(GridSample(entry.map, entry.window))
    ok = ok and "Theorem A(a)" in assessment.verdict

    entry = get("C")
    samples = sample_spectrum(GridSample(entry.map, Region(-6, 6, -6, 6, 41)))
    checks = check_condition_A(samples)
    ok = ok and not checks.a.holds_on_window and not checks.b.holds_on_window \
        and not checks.c.holds_on_window
    witness = checks.b.witness
    ok = ok and witness is not None \
        and abs(witness.spectrum.lambda1 - 1.0) <= 1e-9 \
        and abs(witness.spectrum.lambda2 - 1.0) <= 1e-9

    _report(5, "verdict matrix (A1/A3/B via trace, A2/A4 real spectrum, "
               "identity, rotation blend all-fail with unit witness)", ok)
    assert ok


def test_criterion_06_injectivity():
    ok = True
    for name in ("A1", "A2", "A3", "A4", "B"):
        entry = get(name)
        cert = injectivity_scan(standard_map(entry.map), entry.window, scan_n=201)
        ok = ok and cert.status == NO_COLLISION_FOUND

    h = standard_map(get("C").map)
    cert = injectivity_scan(h, Region(0, 6, 0, 6), scan_n=201)
    ok = ok and cert.status == COLLISION and cert.witness_pair is not None
    if cert.witness_pair is not None:
        w1, w2 = cert.witness_pair
        ok = ok and math.hypot(w1[0] - 3, w1[1] - 3) <= 1.0 + 1e-9
        ok = ok and math.hypot(w2[0] - 3, w2[1] - 3) <= 1.0 + 1e-9
        h1 = h.evaluate(w1)
        ok = ok and math.hypot(h1[0] - 3.0, h1[1] - 3.0) <= 1e-9
    _report(6, "injectivity scans (clean for A1-A4/B, plateau collision for C)", ok)
    assert ok


def test_criterion_07_foliation_regression():
    ok = True
    entry = get("A1", 1)
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    assert fol.kind == VERTICAL
    lo, hi = -67.5, 67.5
    parameters = [lo + i * (hi - lo) / 20 for i in range(21)]
    worst_eq = 0.0
    worst_inv = 0.0
    for c in parameters:
        leaf = trace_leaf(h, fol, c, entry.window)
        ok = ok and len(leaf.points) >= 1 and not leaf.truncated
        for x, y in leaf.points:
            worst_eq = max(worst_eq, abs(2 * x - y**3 - 2 * c))
        worst_inv = max(worst_inv, leaf_invariance_check(entry.map, h, fol, leaf))
    ok = ok and worst_eq <= 1e-6 and worst_inv <= 1e-8

    entry = get("A2", 1)
    h = standard_map(entry.map)
    fol = diagonalize_involution(h.linear_part)
    assert fol.kind == RADIAL
    worst_ray = 0.0
    for k in range(8):
        leaf = trace_leaf(h, fol, 2 * math.pi * k / 8, entry.window)
        worst_ray = max(worst_ray, leaf_invariance_check(entry.map, h, fol, leaf))
    ok = ok and worst_ray <= 1e-8
    _report(7, f"foliation regression (leaf eq {worst_eq:.2e}, invariance "
               f"{worst_inv:.2e}, antipodal {worst_ray:.2e})", ok)
    assert ok


def test_criterion_08_derivative_oracle():
    rng = np.random.default_rng(8128)
    step = 1e-6
    ok = True
    worst_rel = 0.0
    for name in _BASE_NAMES:
        entry = get(name)
        m = entry.map
        for p in _random_points(rng, entry.window, 1000):
            got = m.evaluate_with_jacobian(p)[2:]
            for comp in (0, 1):
                for var in (0, 1):
                    hi = list(p)
                    lo = list(p)
                    hi[var] += step
                    lo[var] -= step
                    fd = (m.evaluate(tuple(hi))[comp] - m.evaluate(tuple(lo))[comp]) / (2 * step)
                    d = abs(got[2 * comp + var] - fd)
                    tol = 1e-5 * abs(fd) + 1e-8
                    worst_rel = max(worst_rel, d / max(abs(fd), 1e-8))
                    ok = ok and d <= tol
    _report(8, f"derivative oracle vs central differences (worst rel {worst_rel:.2e})", ok)
    assert ok


def test_criterion_09_eigenvalue_oracle():
    rng = np.random.default_rng(9000)
    ok = True
    worst = 0.0
    for _ in range(100000):
        a, b, c, d = rng.uniform(-5, 5, 4)
        m = Mat2(a, b, c, d)
        s = eigenvalues(m)
        disc = m.trace**2 - 4 * m.det
        if disc >= 0.0:
            ok = ok and s.lambda1.imag == 0.0 and s.lambda2.imag == 0.0
        for lam in (s.lambda1, s.lambda2):
            res = abs(lam * lam - m.trace * lam + m.det) / (1.0 + abs(lam) ** 2)
            worst = max(worst, res)
    ok = ok and worst <= 1e-9
    _report(9, f"eigenvalue closed form vs characteristic polynomial "
               f"(worst residual {worst:.2e})", ok)
    assert ok


def test_criterion_10_report_determinism(tmp_path):
    reports = []
    for i in range(2):
        out = tmp_path / f"det{i}.json"
        code = cli_main(["analyze", "gallery:A2:1", "--out", str(out)])
        assert code == 0
        reports.append(json.loads(out.read_text()))
    for r in reports:
        r.pop("timings_ms")
    ok = json.dumps(reports[0]) == json.dumps(reports[1])
    _report(10, "byte-identical analyze reports apart from timings", ok)
    assert ok
