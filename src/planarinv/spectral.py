"""Sampled spectrum of a planar involution and the linearization conditions.

The spectrum of a map is the set of eigenvalues of its Jacobian over all
points; here it is sampled over a bounded window, so every verdict is
window-qualified and never claims a global "for all p".

For an orientation-preserving involution fixing the origin the standard
map is a global linearization under any of:

  (a) every eigenvalue equals 1 (the map is the identity),
  (b) 1 is never an eigenvalue on the window, which on a compact connected
      window is the paper's Spc ∩ [1, 1 + eps) = ∅ for some eps > 0, or
  (c) every sampled eigenvalue is real.

For an orientation-reversing involution the criterion is the trace
condition: Trace(Dphi(0) Dphi(p)) > -1 at every sample.

Each condition is decided from the trace and determinant of the sampled
Jacobians, never from rounded eigenvalues, which serve as witnesses only.

The trace condition's Dphi(0) comes from
:func:`planarinv.involution.linear_part`, so :func:`sample_spectrum` and
:func:`theorem_verdict` need a map that fixes the origin; a map that fixes
another point is recentered first with :func:`planarinv.involution.fix_origin`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .involution import (
    ORIENTATION_PRESERVING,
    GridSample,
    OrientationClass,
    Region,
    linear_part,
    orientation,
)
from .linalg2 import Mat2, Spectrum, eigenvalues, power_of_two_scaled

COND_A_IDENTITY = "A-a"
COND_A_GAP = "A-b"
COND_A_REAL = "A-c"
COND_B_TRACE = "B-trace"


@dataclass(frozen=True)
class SpectrumSample:
    point: tuple[float, float]
    spectrum: Spectrum
    trace_product: float  # Trace(Dphi(0) @ Dphi(point))


@dataclass(frozen=True)
class ConditionVerdict:
    condition: str
    holds_on_window: bool
    witness: SpectrumSample | None  # violating sample, present iff the condition fails
    margin: float


@dataclass(frozen=True)
class TheoremAChecks:
    a: ConditionVerdict
    b: ConditionVerdict
    c: ConditionVerdict

    def as_list(self) -> list[ConditionVerdict]:
        return [self.a, self.b, self.c]


@dataclass(frozen=True)
class SpectralAssessment:
    orientation: OrientationClass
    conditions: list[ConditionVerdict]
    verdict: str
    linearizable_on_window: bool


class SpectrumSamples(Sequence):
    """The spectrum samples of a grid sample, one per node in grid order.

    Holds the sample's Jacobian floats and the linear part; an item is a
    :class:`SpectrumSample` built on access, with :func:`eigenvalues` and
    the trace product of :func:`_trace_product`.  :func:`check_condition_A`
    and :func:`check_condition_B` reduce over the floats and build items
    only for their witnesses.
    """

    def __init__(self, sample: GridSample, linear_part: Mat2):
        self.sample = sample
        self.linear_part = linear_part

    def __len__(self) -> int:
        return len(self.sample.ux)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[j] for j in range(len(self))[index]]
        j = range(len(self))[index]
        s = self.sample
        a11, a12, a21, a22 = s.ux[j], s.uy[j], s.vx[j], s.vy[j]
        return SpectrumSample((s.px[j], s.py[j]), eigenvalues(Mat2(a11, a12, a21, a22)),
                              _trace_product(self.linear_part, a11, a12, a21, a22))

    def jacobians(self):
        """``(a11, a12, a21, a22)`` of Dphi at every node."""
        s = self.sample
        return zip(s.ux, s.uy, s.vx, s.vy)


def sample_spectrum(sample: GridSample) -> SpectrumSamples:
    """One spectrum sample per grid node, in deterministic grid order.

    The linear part entering the trace product is Dphi(0), from
    :func:`linear_part`, so the map must fix the origin.  The Jacobians are
    those of the grid sample.
    """
    return SpectrumSamples(sample, linear_part(sample.planar_map))


# The rounding size of an expression is _ROUNDING times the sum of its terms'
# magnitudes, as :func:`planarinv.involution.orientation` sizes ``det``.  The
# worst rounding measured on 2x2 Jacobians is 2 ulps; a much larger multiple
# would let a complex pair with a small imaginary part pass as real.  A
# product that underflows is rounded to a multiple of 2^-1074 instead, so
# the discriminant, whose terms can all be subnormal, and p(1), whose k^2 can
# underflow, also allow _UNDERFLOW.
_ROUNDING = 16 * 2.0**-52
_UNDERFLOW = 16 * 2.0**-1074


def _distance_to_one(s: float, one: float, disc: float, disc_tol: float) -> float:
    """dist(1, {lambda1, lambda2}) for a 2x2 matrix with trace ``s + 2``,
    ``p(1) = one != 0`` and discriminant ``disc``: the smaller modulus of the
    roots of ``mu^2 - s mu + p(1)``, the spectrum shifted by -1."""
    if disc < -disc_tol:
        return math.sqrt(abs(one))  # a conjugate pair: |mu|^2 = p(1)
    if disc <= disc_tol:
        return abs(s) / 2.0  # the double root s/2
    return 2.0 * abs(one) / (abs(s) + math.sqrt(disc))


def _trace_product(lin: Mat2, a11: float, a12: float, a21: float, a22: float) -> float:
    """Trace(lin @ A) with the operations of ``(lin @ A).trace``.  Where its
    products overflow both ways (a NaN), it is taken from both matrices
    scaled by a power of two (:func:`power_of_two_scaled`) and divided by
    both scales: the true value, or +-inf."""
    l11, l12, l21, l22 = lin.a11, lin.a12, lin.a21, lin.a22
    tp = (l11 * a11 + l12 * a21) + (l21 * a12 + l22 * a22)
    if tp != tp:
        kl, l11, l12, l21, l22 = power_of_two_scaled(l11, l12, l21, l22)
        ka, a11, a12, a21, a22 = power_of_two_scaled(a11, a12, a21, a22)
        tp = ((l11 * a11 + l12 * a21) + (l21 * a12 + l22 * a22)) / kl / ka
    return tp


def check_condition_A(samples: SpectrumSamples) -> TheoremAChecks:
    """Evaluate the three orientation-preserving hypotheses on the samples.

    Each is a sign test on the trace ``t``, the determinant ``d`` and
    ``p(1) = 1 - t + d = det(I - Dphi)`` of every sampled Jacobian:

    * (a) holds where ``t = 2`` and ``p(1) = 0``: both eigenvalues are 1.
    * (b) holds when ``p(1)`` keeps one strict sign over the window: 1 is
      never an eigenvalue.  The window is compact and connected, so this is
      the paper's ``Spc ∩ [1, 1+eps) = ∅`` for ``eps = dist(1, Spc)``.
    * (c) holds where ``t^2 - 4d >= 0``: the spectrum is real.

    "= 0" and ">= 0" allow each expression's rounding size: ``_ROUNDING``
    times the sum of its terms' magnitudes (``2``, ``|a11|``, ``|a22|`` for
    ``t - 2``; ``1``, ``|t|``, ``|a11*a22|``, ``|a12*a21|`` for ``p(1)``;
    ``t^2``, ``4|a11*a22|``, ``4|a12*a21|`` for the discriminant), plus
    ``_UNDERFLOW`` for the last two.

    A node where a term of ``t^2 - 4d`` overflows is decided on its entries
    scaled by a power of two ``k`` (:func:`power_of_two_scaled`), ``B = kA``:
    ``t - 2 = (tr B - 2k)/k``, ``p(1) = det(kI - B)/k^2``, ``t^2 - 4d`` is
    that of ``B`` over ``k^2`` and ``dist(1, Spc) = dist(k, Spc(B))/k``.

    Margins are signed distances to the respective decision boundary:

    * (a): the least over the nodes of ``tol - |t - 2|`` and
      ``tol - |p(1)|``; non-negative iff it holds.
    * (b): when it holds, ``dist(1, Spc)`` over the samples, the largest eps
      that works, which is > 0; when it fails, 0.
    * (c): the least ``t^2 - 4d + tol``; non-negative iff it holds.

    The witnesses of (a) and (c) are their first failing nodes.  That of (b)
    is the first node where ``p(1)`` vanishes, or else the first node where
    its sign differs from the first node's.  A NaN fails every test.
    """
    margin_a = margin_c = dist_one = math.inf
    witness_a = witness_c = vanishes = flips = None
    sign = 0.0
    for j, (a11, a12, a21, a22) in enumerate(samples.jacobians()):
        t = a11 + a22
        p = a11 * a22
        q = a12 * a21
        k, size = 1.0, t * t + 4.0 * abs(p) + 4.0 * abs(q)
        if size == math.inf:  # a term overflowed: decide on scaled entries
            k, a11, a12, a21, a22 = power_of_two_scaled(a11, a12, a21, a22)
            t, p, q = a11 + a22, a11 * a22, a12 * a21
            size = t * t + 4.0 * abs(p) + 4.0 * abs(q)
        one = k * k - k * t + (p - q)
        one_tol = _ROUNDING * (k * k + k * abs(t) + abs(p) + abs(q)) + _UNDERFLOW
        disc = t * t - 4.0 * (p - q)
        disc_tol = _ROUNDING * size + _UNDERFLOW
        m = min((_ROUNDING * (2.0 * k + abs(a11) + abs(a22)) - abs(t - 2.0 * k)) / k,
                (one_tol - abs(one)) / k / k)
        if not m >= margin_a:
            margin_a = m if m == m else -math.inf
        if witness_a is None and not m >= 0.0:
            witness_a = j
        m = (disc + disc_tol) / k / k
        if not m >= margin_c:
            margin_c = m if m == m else -math.inf
        if witness_c is None and not m >= 0.0:
            witness_c = j
        if not abs(one) > one_tol:
            if vanishes is None:
                vanishes = j
        elif vanishes is None:
            if sign == 0.0:
                sign = one
            elif flips is None and (one > 0.0) != (sign > 0.0):
                flips = j
            dist_one = min(dist_one, _distance_to_one(t - 2.0 * k, one, disc, disc_tol) / k)
    witness_b = flips if vanishes is None else vanishes
    verdict_a = ConditionVerdict(COND_A_IDENTITY, witness_a is None,
                                 None if witness_a is None else samples[witness_a], margin_a)
    if witness_b is None:
        verdict_b = ConditionVerdict(COND_A_GAP, True, None, dist_one)
    else:
        verdict_b = ConditionVerdict(COND_A_GAP, False, samples[witness_b], 0.0)
    verdict_c = ConditionVerdict(COND_A_REAL, witness_c is None,
                                 None if witness_c is None else samples[witness_c], margin_c)
    return TheoremAChecks(verdict_a, verdict_b, verdict_c)


def check_condition_B(samples: SpectrumSamples) -> ConditionVerdict:
    """Trace condition for orientation-reversing involutions.

    Holds iff min Trace(Dphi(0) Dphi(p)) > -1; the margin is that minimum
    plus one, so a margin of 3 means the trace never dropped below 2.
    Each trace is that of :func:`_trace_product`, so a trace whose products
    overflow both ways is taken on scaled entries; a NaN fails the test.
    """
    lin = samples.linear_part
    min_tp = math.inf
    witness = None
    for j, (a11, a12, a21, a22) in enumerate(samples.jacobians()):
        tp = _trace_product(lin, a11, a12, a21, a22)
        if not tp >= min_tp:
            min_tp = tp if tp == tp else -math.inf
        if witness is None and not tp > -1.0:
            witness = j
    holds = min_tp > -1.0
    return ConditionVerdict(COND_B_TRACE, holds, None if holds else samples[witness],
                            min_tp + 1.0)


def _window_str(region: Region) -> str:
    return (f"[{region.x_min:g}, {region.x_max:g}] x "
            f"[{region.y_min:g}, {region.y_max:g}]")


def theorem_verdict(sample: GridSample) -> SpectralAssessment:
    """Decide which linearization hypothesis (if any) holds on the window.

    Orientation-preserving maps are linearizable on the window iff (a),
    (b), or (c) holds; orientation-reversing maps iff the trace condition
    holds.  The verdict string names the condition used and the window it
    was sampled on.  Orientation and spectrum read the one grid sample.
    """
    orient = orientation(sample)
    samples = sample_spectrum(sample)
    win = _window_str(sample.region)
    if orient.kind == ORIENTATION_PRESERVING:
        checks = check_condition_A(samples)
        conditions = checks.as_list()
        if checks.a.holds_on_window:
            verdict = f"Theorem A(a) applies on {win} (every sampled eigenvalue is 1: the map is the identity there)"
            ok = True
        elif checks.c.holds_on_window:
            verdict = f"Theorem A(c) applies on {win} (all sampled eigenvalues are real)"
            ok = True
        elif checks.b.holds_on_window:
            verdict = (f"Theorem A(b) applies on {win} (1 is never an eigenvalue; "
                       f"distance to the spectrum {checks.b.margin:g})")
            ok = True
        else:
            w = checks.b.witness.point
            verdict = (f"no hypothesis verified on {win}; "
                       f"Theorem A(b) violated at ({w[0]:g}, {w[1]:g})")
            ok = False
    else:
        cond_b = check_condition_B(samples)
        conditions = [cond_b]
        if cond_b.holds_on_window:
            verdict = (f"Theorem B applies on {win} "
                       f"(trace condition, margin {cond_b.margin:g})")
            ok = True
        else:
            w = cond_b.witness.point
            verdict = (f"no hypothesis verified on {win}; "
                       f"Theorem B trace condition violated at ({w[0]:g}, {w[1]:g})")
            ok = False
    return SpectralAssessment(orient, conditions, verdict, ok)
