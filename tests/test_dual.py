import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treewalk import Dual, ipow, seed


def _fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


@pytest.mark.parametrize(
    "fn,ref,lo,hi",
    [
        (Dual.sinh, math.sinh, -3.0, 3.0),
        (Dual.cosh, math.cosh, -3.0, 3.0),
        (Dual.asinh, math.asinh, -10.0, 10.0),
        (Dual.sqrt, math.sqrt, 0.1, 10.0),
        (Dual.sin, math.sin, -3.0, 3.0),
        (Dual.cos, math.cos, -3.0, 3.0),
    ],
)
def test_unary_chain_rule_matches_finite_differences(fn, ref, lo, hi):
    rng = np.random.default_rng(7)
    for x in rng.uniform(lo, hi, 50):
        d = fn(Dual(x, 1.0, 0.0))
        assert d.value == ref(x)
        assert d.dx == pytest.approx(_fd(ref, x), rel=1e-6, abs=1e-9)
        assert d.dy == 0.0


def test_arithmetic_chain_rule():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b = rng.uniform(-5, 5, 2)
        if abs(b) < 0.1:
            b += 0.5
        x, y = seed(a, b)
        f = (x * y - y / x) * (x + 2.0)
        g = lambda u, v: (u * v - v / u) * (u + 2.0)
        assert f.value == pytest.approx(g(a, b), rel=1e-12)
        assert f.dx == pytest.approx(_fd(lambda t: g(t, b), a), rel=1e-5, abs=1e-8)
        assert f.dy == pytest.approx(_fd(lambda t: g(a, t), b), rel=1e-5, abs=1e-8)


def test_pow_by_repeated_multiplication():
    x = Dual(3.0, 1.0, 0.0)
    p = x ** 4
    assert p.value == 81.0
    assert p.dx == 108.0  # 4 * 3^3
    assert ipow(2.0, 0) == 1.0
    z = Dual(0.0, 1.0, 0.0) ** 0
    assert z == 1.0  # empty product is the constant 1


def test_pow_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Dual(2.0) ** -1
    with pytest.raises(ValueError):
        Dual(2.0) ** 0.5


def test_abs_sign_convention():
    d = abs(Dual(-2.0, 1.0, 3.0))
    assert (d.value, d.dx, d.dy) == (2.0, -1.0, -3.0)
    at_zero = abs(Dual(0.0, 1.0, 1.0))
    assert (at_zero.value, at_zero.dx, at_zero.dy) == (0.0, 0.0, 0.0)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Dual(1.0) / Dual(0.0)
    with pytest.raises(ZeroDivisionError):
        1.0 / Dual(0.0)
    with pytest.raises(ZeroDivisionError):
        Dual(1.0) / 0.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150)
_DIVISOR = _FINITE.filter(bool) | st.sampled_from([3.0, -0.1, 7.0, 2.0 ** -1022])


@given(_FINITE, _FINITE, _FINITE, _DIVISOR, _FINITE, _FINITE)
def test_quotients_round_once_and_keep_reciprocal_partials(a, adx, ady, b, bdx, bdy):
    # the value is float division, rounded once; the partials scale by 1/b
    inv = 1.0 / b
    q = Dual(a, adx, ady) / b
    assert repr((q.value, q.dx, q.dy)) == repr((a / b, adx * inv, ady * inv))
    q = Dual(a, adx, ady) / Dual(b, bdx, bdy)
    val = a / b
    assert repr((q.value, q.dx, q.dy)) == repr(
        (val, (adx - val * bdx) * inv, (ady - val * bdy) * inv))


def test_mixing_with_plain_floats():
    x = Dual(2.0, 1.0, 0.0)
    f = 3.0 * x + 1.0 - x / 2.0
    assert f.value == 6.0
    assert f.dx == 2.5
    assert (2.0 - x).dx == -1.0

