"""Exact 2x2 real matrix arithmetic and closed-form eigenvalues.

Eigenvalues come from the quadratic formula applied to the characteristic
polynomial, with the real/complex split decided by the discriminant sign
*before* any square root is taken.  Matrices with a non-negative
discriminant therefore get eigenvalues whose imaginary part is exactly
zero, so realness tests never have to fight rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix whose determinant is (near) zero."""

    def __init__(self, det: float):
        super().__init__(f"matrix is singular to working precision (det = {det!r})")
        self.det = det


@dataclass(frozen=True)
class Mat2:
    a11: float
    a12: float
    a21: float
    a22: float

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

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a11, -self.a12, -self.a21, -self.a22)

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


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenvalue pair of a Mat2.

    lambda1 takes the '-' branch of the quadratic formula and lambda2 the
    '+' branch, which keeps the ordering deterministic even though the
    spectrum is mathematically a set.
    """

    lambda1: complex
    lambda2: complex

    def as_pair(self) -> tuple[complex, complex]:
        return (self.lambda1, self.lambda2)

    def shifted(self, offset: float) -> "Spectrum":
        return Spectrum(self.lambda1 + offset, self.lambda2 + offset)


def eigenvalues(m: Mat2) -> Spectrum:
    """Both roots of the characteristic polynomial of ``m``.

    Real-discriminant matrices yield eigenvalues with imaginary part
    exactly 0.0; a negative discriminant yields a conjugate pair.
    """
    re1, im1, re2, im2 = eigen_entries(m.a11, m.a12, m.a21, m.a22)
    return Spectrum(complex(re1, im1), complex(re2, im2))


def eigen_entries(
    a11: float, a12: float, a21: float, a22: float
) -> tuple[float, float, float, float]:
    """:func:`eigenvalues` of ``[[a11, a12], [a21, a22]]`` as the floats
    ``(Re lambda1, Im lambda1, Re lambda2, Im lambda2)``, for callers that
    keep the matrix as plain floats."""
    t = a11 + a22
    d = a11 * a22 - a12 * a21
    disc = t * t - 4.0 * d
    if disc >= 0.0:
        s = math.sqrt(disc)
        return (t - s) / 2.0, 0.0, (t + s) / 2.0, 0.0
    s = math.sqrt(-disc)
    return t / 2.0, -s / 2.0, t / 2.0, s / 2.0


def is_linear_involution(m: Mat2, tol: float = 1e-9) -> bool:
    """True iff every entry of m@m - I has magnitude at most tol."""
    return ((m @ m) - IDENTITY).max_abs() <= tol


def set_distance(a: Spectrum, b: Spectrum) -> float:
    """Distance between two eigenvalue pairs viewed as unordered sets.

    Minimum over the two pairings of the larger eigenvalue distance.
    """
    a1, a2, b1, b2 = a.lambda1, a.lambda2, b.lambda1, b.lambda2
    return set_distance_entries(a1.real, a1.imag, a2.real, a2.imag,
                                b1.real, b1.imag, b2.real, b2.imag)


def set_distance_entries(
    a1r: float, a1i: float, a2r: float, a2i: float,
    b1r: float, b1i: float, b2r: float, b2i: float,
) -> float:
    """:func:`set_distance` on the eigenvalue pairs' real and imaginary
    parts; each distance is the ``abs`` of a complex difference, as there."""
    d11 = abs(complex(a1r - b1r, a1i - b1i))
    d22 = abs(complex(a2r - b2r, a2i - b2i))
    d12 = abs(complex(a1r - b2r, a1i - b2i))
    d21 = abs(complex(a2r - b1r, a2i - b1i))
    return min(max(d11, d22), max(d12, d21))


def solve_min_norm(m: Mat2, r: tuple[float, float]) -> tuple[float, float]:
    """Solve m @ delta = r; minimum-norm least squares when m is rank deficient.

    Rank-deficient systems arise in Newton iterations whose Jacobian is
    structurally singular (e.g. root sets that form a curve), where the
    minimum-norm step still converges to the nearest root.
    """
    return solve_min_norm_entries(m.a11, m.a12, m.a21, m.a22, r[0], r[1])


def solve_min_norm_entries(
    a11: float, a12: float, a21: float, a22: float, rx: float, ry: float
) -> tuple[float, float]:
    """:func:`solve_min_norm` on the entries of ``m`` and ``r``, for callers
    that keep the matrix as plain floats."""
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
