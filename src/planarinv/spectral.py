"""Sampled spectrum of a planar involution and the linearization conditions.

The spectrum of a map is the set of eigenvalues of its Jacobian over all
points; here it is sampled over a bounded window, so every verdict is
window-qualified and never claims a global "for all p".

For an orientation-preserving involution fixing the origin the standard
map is a global linearization under any of:

  (a) every eigenvalue equals 1 (the map is the identity),
  (b) no real eigenvalue lies in [1, 1 + eps) for the chosen eps, or
  (c) every sampled eigenvalue is real.

For an orientation-reversing involution the criterion is the trace
condition: Trace(Dphi(0) Dphi(p)) > -1 at every sample.

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
from .linalg2 import Mat2, Spectrum, eigen_entries, eigenvalues

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
    ``(linear_part @ jac).trace``.  :func:`check_condition_A` and
    :func:`check_condition_B` reduce over the floats and build items only
    for their witnesses.
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
        jac = Mat2(s.ux[j], s.uy[j], s.vx[j], s.vy[j])
        return SpectrumSample((s.px[j], s.py[j]), eigenvalues(jac),
                              (self.linear_part @ jac).trace)

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


def _distance_to_band(re: float, im: float, epsilon: float) -> float:
    """Euclidean distance from the eigenvalue ``re + im i`` to the real
    segment [1, 1+eps]."""
    if re < 1.0:
        dx = 1.0 - re
    elif re > 1.0 + epsilon:
        dx = re - (1.0 + epsilon)
    else:
        dx = 0.0
    return math.hypot(dx, im)


def check_condition_A(
    samples: SpectrumSamples,
    epsilon: float = 0.1,
    im_tol: float = 1e-9,
    one_tol: float = 1e-9,
) -> TheoremAChecks:
    """Evaluate the three orientation-preserving hypotheses on the samples.

    ``epsilon`` must be a finite number > 0 (ValueError otherwise): with
    eps <= 0 the band [1, 1+eps) is empty and (b) would hold vacuously.

    Margins are signed distances to the respective decision boundary:

    * (a): ``one_tol - max |lambda - 1|``; non-negative iff it holds.
    * (b): when it holds, the smallest distance from any eigenvalue to the
      real segment [1, 1+eps]; when it fails, ``(Re lambda* - 1) - eps``
      where lambda* is the binding violator, i.e. how much eps would have
      to shrink for the violation to clear.
    * (c): ``im_tol - max |Im lambda|``; non-negative iff it holds.

    The witness reported for (b) is the violating sample whose eigenvalue
    sits lowest in the band: that eigenvalue falsifies the hypothesis for
    every smaller eps as well, so it is the binding counterexample.

    Each eigenvalue is reduced as the floats of :func:`eigen_entries`, with
    the operations of complex arithmetic on :func:`eigenvalues` (``|lambda
    - 1|`` is the ``abs`` of a complex); witnesses are node indices until
    the verdicts are built.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite number > 0, got {epsilon!r}")
    max_dev_one = 0.0
    witness_a = None
    max_imag = 0.0
    witness_c = None
    min_band_dist = math.inf
    binding_re = math.inf
    witness_b = None
    for j, entries in enumerate(samples.jacobians()):
        re1, im1, re2, im2 = eigen_entries(*entries)
        for re, im in ((re1, im1), (re2, im2)):
            dev = abs(complex(re - 1.0, im))
            if dev > max_dev_one:
                max_dev_one = dev
            if witness_a is None and dev > one_tol:
                witness_a = j
            im = abs(im)
            if im > max_imag:
                max_imag = im
            if witness_c is None and im > im_tol:
                witness_c = j
            violates_b = im <= im_tol and 1.0 <= re < 1.0 + epsilon
            if violates_b:
                if re < binding_re:
                    binding_re = re
                    witness_b = j
            else:
                min_band_dist = min(min_band_dist, _distance_to_band(re, im, epsilon))
    a_holds = max_dev_one <= one_tol
    c_holds = max_imag <= im_tol
    b_holds = witness_b is None
    verdict_a = ConditionVerdict(
        COND_A_IDENTITY, a_holds, None if a_holds else samples[witness_a], one_tol - max_dev_one
    )
    if b_holds:
        margin_b = min_band_dist if min_band_dist < math.inf else math.inf
        verdict_b = ConditionVerdict(COND_A_GAP, True, None, margin_b)
    else:
        verdict_b = ConditionVerdict(COND_A_GAP, False, samples[witness_b],
                                     (binding_re - 1.0) - epsilon)
    verdict_c = ConditionVerdict(
        COND_A_REAL, c_holds, None if c_holds else samples[witness_c], im_tol - max_imag
    )
    return TheoremAChecks(verdict_a, verdict_b, verdict_c)


def check_condition_B(samples: SpectrumSamples) -> ConditionVerdict:
    """Trace condition for orientation-reversing involutions.

    Holds iff min Trace(Dphi(0) Dphi(p)) > -1; the margin is that minimum
    plus one, so a margin of 3 means the trace never dropped below 2.
    Each trace takes the operations of ``(linear_part @ jac).trace``.
    """
    lin = samples.linear_part
    l11, l12, l21, l22 = lin.a11, lin.a12, lin.a21, lin.a22
    min_tp = math.inf
    witness = None
    for j, (a11, a12, a21, a22) in enumerate(samples.jacobians()):
        tp = (l11 * a11 + l12 * a21) + (l21 * a12 + l22 * a22)
        if tp < min_tp:
            min_tp = tp
        if witness is None and tp <= -1.0:
            witness = j
    holds = min_tp > -1.0
    return ConditionVerdict(COND_B_TRACE, holds, None if holds else samples[witness],
                            min_tp + 1.0)


def _window_str(region: Region) -> str:
    return (f"[{region.x_min:g}, {region.x_max:g}] x "
            f"[{region.y_min:g}, {region.y_max:g}]")


def theorem_verdict(
    sample: GridSample,
    epsilon: float = 0.1,
    im_tol: float = 1e-9,
    one_tol: float = 1e-9,
) -> SpectralAssessment:
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
        checks = check_condition_A(samples, epsilon, im_tol, one_tol)
        conditions = checks.as_list()
        if checks.a.holds_on_window:
            verdict = f"Theorem A(a) applies on {win} (every sampled eigenvalue is 1: the map is the identity there)"
            ok = True
        elif checks.c.holds_on_window:
            verdict = f"Theorem A(c) applies on {win} (all sampled eigenvalues are real)"
            ok = True
        elif checks.b.holds_on_window:
            verdict = f"Theorem A(b) applies on {win} (no eigenvalue in [1, 1+{epsilon:g}))"
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
