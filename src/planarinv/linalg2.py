"""2x2 real matrix arithmetic and closed-form eigenvalues.

Eigenvalues come from the quadratic formula applied to the characteristic
polynomial, with the real/complex split taken from the sign of the rounded
discriminant; of two real roots, the smaller in magnitude is the
determinant over the larger, so it does not cancel.  A real double root
can come out as a conjugate pair ``lambda +- 1e-8 i``, so no realness test
reads them: the spectral conditions are decided from trace and
determinant, and eigenvalues are reported as witnesses.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix whose determinant is (near) zero."""

    def __init__(self, det: float):
        super().__init__(f"matrix is singular to working precision (det = {det!r})")
        self.det = det


class Mat2:  # a plain class: a NamedTuple's attribute reads are slower (ROADMAP, "Settled")
    """The matrix ``[[a11, a12], [a21, a22]]``; it has no ``*`` (see :meth:`scale`)."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11: float, a12: float, a21: float, a22: float):
        self.a11 = a11
        self.a12 = a12
        self.a21 = a21
        self.a22 = a22

    def __repr__(self) -> str:
        return f"Mat2(a11={self.a11!r}, a12={self.a12!r}, a21={self.a21!r}, a22={self.a22!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.a11, self.a12, self.a21, self.a22)
                == (other.a11, other.a12, other.a21, other.a22))

    def __hash__(self) -> int:
        return hash((self.a11, self.a12, self.a21, self.a22))

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 + other.a11, self.a12 + other.a12,
                    self.a21 + other.a21, self.a22 + other.a22)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a11 - other.a11, self.a12 - other.a12,
                    self.a21 - other.a21, self.a22 - other.a22)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def scale(self, c: float) -> "Mat2":
        return Mat2(c * self.a11, c * self.a12, c * self.a21, c * self.a22)

    def apply(self, p: tuple[float, float]) -> tuple[float, float]:
        x, y = p
        return (self.a11 * x + self.a12 * y, self.a21 * x + self.a22 * y)

    def max_abs(self) -> float:
        return max(abs(self.a11), abs(self.a12), abs(self.a21), abs(self.a22))

    def inverse(self) -> "Mat2":
        d = self.det
        if abs(d) <= 1e-14:
            raise SingularMatrixError(d)
        inv = 1.0 / d
        return Mat2(self.a22 * inv, -self.a12 * inv, -self.a21 * inv, self.a11 * inv)

    def rows(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.a11, self.a12), (self.a21, self.a22))


IDENTITY = Mat2(1.0, 0.0, 0.0, 1.0)
MINUS_IDENTITY = Mat2(-1.0, 0.0, 0.0, -1.0)


class Spectrum(NamedTuple):
    """Ordered eigenvalue pair of a Mat2.

    Real roots come with ``lambda1 <= lambda2``, and a conjugate pair with
    the negative imaginary part first, which keeps the ordering
    deterministic even though the spectrum is mathematically a set.
    """

    lambda1: complex
    lambda2: complex


def eigenvalues(m: Mat2) -> Spectrum:
    """Both roots of the characteristic polynomial of ``m``.

    A non-negative rounded discriminant yields eigenvalues with imaginary
    part exactly 0.0; a negative one yields a conjugate pair.  Of two real
    roots, the larger in magnitude is ``(t + copysign(s, t))/2`` and the
    other ``det`` over it, or 0 when both are.  Where a term of the
    discriminant overflows, they are those of ``m`` times ``k`` (of
    :func:`power_of_two_scaled`) over ``k``.
    """
    t, d = m.trace, m.det
    disc = t * t - 4.0 * d
    k = 1.0
    if not math.isfinite(disc):
        k, a11, a12, a21, a22 = power_of_two_scaled(m.a11, m.a12, m.a21, m.a22)
        t, d = a11 + a22, a11 * a22 - a12 * a21
        disc = t * t - 4.0 * d
    if disc >= 0.0:
        big = (t + math.copysign(math.sqrt(disc), t)) / 2.0
        small = d / big if big != 0.0 else 0.0
        lo, hi = (small, big) if small <= big else (big, small)
        return Spectrum(complex(lo / k, 0.0), complex(hi / k, 0.0))
    s = math.sqrt(-disc)
    return Spectrum(complex(t / 2.0 / k, -s / 2.0 / k), complex(t / 2.0 / k, s / 2.0 / k))


def is_linear_involution(m: Mat2) -> bool:
    """True iff every entry of m@m - I has magnitude at most 1e-9."""
    return ((m @ m) - IDENTITY).max_abs() <= 1e-9


def power_of_two_scaled(a11: float, a12: float, a21: float, a22: float) -> tuple[float, ...]:
    """``(k, k*a11, k*a12, k*a21, k*a22)`` for the power of two ``k`` that brings
    the largest magnitude into [1/2, 1): exact short of underflow, and no
    product of the scaled entries overflows."""
    k = 2.0 ** -math.frexp(max(abs(a11), abs(a12), abs(a21), abs(a22)))[1]
    return k, a11 * k, a12 * k, a21 * k, a22 * k


def solve_min_norm(
    a11: float, a12: float, a21: float, a22: float, rx: float, ry: float
) -> tuple[float, float]:
    """Solve ``m @ delta = r`` for ``m = [[a11, a12], [a21, a22]]`` and
    ``r = (rx, ry)``; minimum-norm least squares when m is rank deficient.

    Rank-deficient systems arise in Newton iterations whose Jacobian is
    structurally singular (e.g. root sets that form a curve), where the
    minimum-norm step still converges to the nearest root.
    """
    scale = max(abs(a11), abs(a12), abs(a21), abs(a22))
    if scale == 0.0:
        return (0.0, 0.0)
    d = a11 * a22 - a12 * a21
    if abs(d) > 1e-12 * scale * scale:
        return ((rx * a22 - a12 * ry) / d, (a11 * ry - a21 * rx) / d)
    # rank <= 1: delta = pinv(m) r via the normal equations G = m^T m,
    # whose single eigenvalue equals its trace.
    g1 = a11 * rx + a21 * ry
    g2 = a12 * rx + a22 * ry
    g11 = a11 * a11 + a21 * a21
    g22 = a12 * a12 + a22 * a22
    g12 = a11 * a12 + a21 * a22
    total = g11 + g22
    if total <= 0.0:
        return (0.0, 0.0)
    u1, u2 = (g11, g12) if g11 >= g22 else (g12, g22)
    uu = u1 * u1 + u2 * u2
    if uu == 0.0:
        return (0.0, 0.0)
    coef = (u1 * g1 + u2 * g2) / (uu * total)
    return (coef * u1, coef * u2)
