"""The reference that the compiled kernels are tested against: a tree walk
over :class:`planarinv.expr.ExprNode` trees on forward-mode scalars.

A :class:`Dual` carries a value together with its two partial derivatives
with respect to the plane coordinates.  Arithmetic applies the chain rule
exactly, so :func:`evaluate_node` on seeded duals produces the value and
one full Jacobian row per component without any finite differencing, and
on floats the value alone.  Every operation computes its value with the
float operation (a quotient included, rounded once), so a tree walked on
seeded duals returns, as the values, bit for bit what it returns on floats.
"""

from __future__ import annotations

import math

from planarinv.expr import ExprNode


class Dual:
    """Scalar with partials d/dx and d/dy attached."""

    __slots__ = ("value", "dx", "dy")

    def __init__(self, value: float, dx: float = 0.0, dy: float = 0.0):
        self.value = float(value)
        self.dx = float(dx)
        self.dy = float(dy)

    def __repr__(self) -> str:
        return f"Dual({self.value!r}, dx={self.dx!r}, dy={self.dy!r})"

    # arithmetic ------------------------------------------------------

    def __neg__(self) -> "Dual":
        return Dual(-self.value, -self.dx, -self.dy)

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.dx + other.dx, self.dy + other.dy)
        return Dual(self.value + other, self.dx, self.dy)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.dx - other.dx, self.dy - other.dy)
        return Dual(self.value - other, self.dx, self.dy)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.dx, -self.dy)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.value * other.value,
                self.dx * other.value + self.value * other.dx,
                self.dy * other.value + self.value * other.dy,
            )
        return Dual(self.value * other, self.dx * other, self.dy * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if other.value == 0.0:
                raise ZeroDivisionError("division by zero")
            # the quotient rounds once, as on floats; the partials scale by 1/b
            inv = 1.0 / other.value
            val = self.value / other.value
            return Dual(
                val,
                (self.dx - val * other.dx) * inv,
                (self.dy - val * other.dy) * inv,
            )
        if other == 0.0:
            raise ZeroDivisionError("division by zero")
        inv = 1.0 / other
        return Dual(self.value / other, self.dx * inv, self.dy * inv)

    def __rtruediv__(self, other):
        if self.value == 0.0:
            raise ZeroDivisionError("division by zero")
        val = other / self.value
        scale = -val / self.value
        return Dual(val, scale * self.dx, scale * self.dy)

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("Dual powers are restricted to non-negative integer exponents")
        return ipow(self, exponent)

    def __abs__(self) -> "Dual":
        # kink convention: sign(0) is taken as 0
        s = 1.0 if self.value > 0.0 else (-1.0 if self.value < 0.0 else 0.0)
        return Dual(abs(self.value), s * self.dx, s * self.dy)

    # elementary functions --------------------------------------------

    def sinh(self) -> "Dual":
        d = math.cosh(self.value)
        return Dual(math.sinh(self.value), d * self.dx, d * self.dy)

    def cosh(self) -> "Dual":
        d = math.sinh(self.value)
        return Dual(math.cosh(self.value), d * self.dx, d * self.dy)

    def asinh(self) -> "Dual":
        d = 1.0 / math.sqrt(1.0 + self.value * self.value)
        return Dual(math.asinh(self.value), d * self.dx, d * self.dy)

    def sqrt(self) -> "Dual":
        root = math.sqrt(self.value)
        if root == 0.0:
            raise ZeroDivisionError("derivative of sqrt at zero")
        d = 0.5 / root
        return Dual(root, d * self.dx, d * self.dy)

    def sin(self) -> "Dual":
        d = math.cos(self.value)
        return Dual(math.sin(self.value), d * self.dx, d * self.dy)

    def cos(self) -> "Dual":
        d = -math.sin(self.value)
        return Dual(math.cos(self.value), d * self.dx, d * self.dy)


def seed(x: float, y: float) -> tuple[Dual, Dual]:
    """Duals for the point (x, y) seeded with identity derivative rows."""
    return Dual(x, 1.0, 0.0), Dual(y, 0.0, 1.0)


def ipow(v, n: int):
    """v**n by repeated multiplication; n must be a non-negative integer.

    The empty product makes v**0 == 1 with zero derivative, also at v == 0.
    """
    if n < 0:
        raise ValueError("negative exponent")
    out = 1.0
    for _ in range(n):
        out = out * v
    return out


def evaluate_node(node: ExprNode, x, y):
    """Evaluate a tree at (x, y); works on floats and on Dual scalars."""
    kind = node.kind
    if kind == "num":
        return node.value
    if kind == "x":
        return x
    if kind == "y":
        return y
    if kind == "pow":
        return ipow(evaluate_node(node.children[0], x, y), node.exponent)
    if kind in ("add", "sub", "mul", "div"):
        a = evaluate_node(node.children[0], x, y)
        b = evaluate_node(node.children[1], x, y)
        if kind == "add":
            return a + b
        if kind == "sub":
            return a - b
        if kind == "mul":
            return a * b
        return a / b
    arg = evaluate_node(node.children[0], x, y)
    if kind == "neg":
        return -arg
    if kind == "abs":
        return abs(arg)
    # sinh, cosh, asinh, sqrt, sin, cos
    return getattr(arg, kind)() if isinstance(arg, Dual) else getattr(math, kind)(arg)


def entries(u, v) -> tuple:
    """``(u, v, du/dx, du/dy, dv/dx, dv/dy)`` of two components computed on
    seeded duals, a number read as a Dual of zero partials."""
    u = u if isinstance(u, Dual) else Dual(u)
    v = v if isinstance(v, Dual) else Dual(v)
    return u.value, v.value, u.dx, u.dy, v.dx, v.dy


def jacobian_entries(first: ExprNode, second: ExprNode, x: float, y: float) -> tuple:
    """:func:`entries` of a tree pair walked on ``seed(x, y)``."""
    sx, sy = seed(x, y)
    return entries(evaluate_node(first, sx, sy), evaluate_node(second, sx, sy))
