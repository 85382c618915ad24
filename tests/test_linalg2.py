import numpy as np
import pytest

from planarinv.linalg2 import (
    IDENTITY,
    MINUS_IDENTITY,
    Mat2,
    SingularMatrixError,
    eigenvalues,
    is_linear_involution,
    solve_min_norm,
)


def test_eigenvalues_double_negative_one():
    s = eigenvalues(Mat2(-1, 4, 0, -1))
    assert s.lambda1 == -1.0 and s.lambda2 == -1.0
    assert s.lambda1.imag == 0.0 and s.lambda2.imag == 0.0


def test_eigenvalues_identity():
    s = eigenvalues(IDENTITY)
    assert (s.lambda1, s.lambda2) == (1.0 + 0.0j, 1.0 + 0.0j)


def test_eigenvalues_rotation_is_conjugate_pair():
    s = eigenvalues(Mat2(0, -1, 1, 0))
    assert s.lambda1 == -1.0j and s.lambda2 == 1.0j


def test_eigenvalue_branch_order():
    s = eigenvalues(Mat2(3, 0, 0, 1))
    # real roots in increasing order
    assert s.lambda1 == 1.0 and s.lambda2 == 3.0


@pytest.mark.parametrize("m, expected", [
    (Mat2(1e200, 2e200, -1e200, -1e200), (-1e200j, 1e200j)),  # t*t - 4*det is -inf
    (Mat2(3e200, 1e200, 1e200, 3e200), (2e200, 4e200)),  # inf - inf
    (Mat2(1e200, 0.0, 0.0, -1e200), (-1e200, 1e200)),  # -4*det is inf
])
def test_eigenvalues_where_a_term_of_the_discriminant_overflows(m, expected):
    # the roots of m scaled by a power of two k, divided by k
    s = eigenvalues(m)
    for got, want in zip((s.lambda1, s.lambda2), expected):
        assert got.real == pytest.approx(want.real, rel=1e-15)
        assert got.imag == pytest.approx(want.imag, rel=1e-15)


@pytest.mark.parametrize("m, small, big", [
    (Mat2(1e10, 0.0, 0.0, 1e-10), 1e-10, 1e10),
    (Mat2(1e200, 0.0, 0.0, 1e-100), 1e-100, 1e200),  # t*t overflows: on scaled entries
    (Mat2(-1e10, 0.0, 0.0, 1e-10), -1e10, 1e-10),
    (Mat2(0.0, 1.0, 0.0, 0.0), 0.0, 0.0),  # both roots 0
])
def test_eigenvalues_keep_the_small_root(m, small, big):
    # the small root is det over the large one, so it does not cancel
    s = eigenvalues(m)
    assert (s.lambda1, s.lambda2) == (complex(small, 0.0), complex(big, 0.0))


def test_characteristic_polynomial_residual_on_random_matrices():
    rng = np.random.default_rng(101)
    for _ in range(10000):
        a, b, c, d = rng.uniform(-5, 5, 4)
        m = Mat2(a, b, c, d)
        s = eigenvalues(m)
        for lam in (s.lambda1, s.lambda2):
            res = abs(lam * lam - m.trace * lam + m.det)
            assert res <= 1e-9 * (1.0 + abs(lam) ** 2)


def test_real_discriminant_gives_exactly_real_eigenvalues():
    rng = np.random.default_rng(55)
    seen = 0
    for _ in range(5000):
        a, b, c, d = rng.uniform(-5, 5, 4)
        m = Mat2(a, b, c, d)
        if m.trace ** 2 - 4 * m.det >= 0.0:
            s = eigenvalues(m)
            assert s.lambda1.imag == 0.0
            assert s.lambda2.imag == 0.0
            seen += 1
    assert seen > 1000


def test_trace_det_reconstruction():
    rng = np.random.default_rng(77)
    for _ in range(10000):
        m = Mat2(*rng.uniform(-5, 5, 4))
        s = eigenvalues(m)
        scale = 1.0 + abs(m.trace) + abs(m.det) + abs(m.trace ** 2 - 4 * m.det)
        assert abs((s.lambda1 + s.lambda2) - m.trace) <= 1e-12 * scale
        assert abs((s.lambda1 * s.lambda2) - m.det) <= 1e-12 * scale


def test_multiply_reversing_pair():
    a = Mat2(1, 0, 0, -1)
    b = Mat2(1, -3, 0, -1)
    prod = a @ b
    assert prod.rows() == ((1.0, -3.0), (0.0, 1.0))
    assert prod.trace == 2.0


def test_apply_minus_identity():
    assert MINUS_IDENTITY.apply((2.0, -7.0)) == (-2.0, 7.0)


def test_inverse_diagonal():
    inv = Mat2(2, 0, 0, 4).inverse()
    assert inv.rows() == ((0.5, 0.0), (0.0, 0.25))


def test_inverse_of_singular_raises_with_det():
    with pytest.raises(SingularMatrixError) as err:
        Mat2(1, 2, 2, 4).inverse()
    assert err.value.det == 0.0


def test_inverse_times_matrix_is_identity():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 2000:
        m = Mat2(*rng.uniform(-10, 10, 4))
        if abs(m.det) < 1e-3:
            continue
        r = m.inverse() @ m
        assert (r - IDENTITY).max_abs() <= 1e-10
        checked += 1


def test_is_linear_involution():
    assert is_linear_involution(MINUS_IDENTITY)
    assert is_linear_involution(Mat2(0.5, 0.5, 1.5, -0.5))  # squares to I
    assert not is_linear_involution(Mat2(2, 0, 0, 2))


def test_solve_min_norm_regular_matches_cramer():
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = Mat2(*rng.uniform(-3, 3, 4))
        if abs(m.det) < 0.1:
            continue
        r = tuple(rng.uniform(-2, 2, 2))
        dx, dy = solve_min_norm(m.a11, m.a12, m.a21, m.a22, *r)
        assert m.apply((dx, dy)) == pytest.approx(r, rel=1e-9, abs=1e-12)


def test_solve_min_norm_rank_deficient():
    # residual restricted to the column span; the step has no x component
    dx, dy = solve_min_norm(0.0, -3.0, 0.0, -2.0, 1.0, 2.0)
    assert dx == 0.0
    expected = np.linalg.lstsq(np.array([[0.0, -3.0], [0.0, -2.0]]),
                               np.array([1.0, 2.0]), rcond=None)[0]
    assert (dx, dy) == pytest.approx(tuple(expected), rel=1e-12, abs=1e-12)
    assert solve_min_norm(0.0, 0.0, 0.0, 0.0, 1.0, 1.0) == (0.0, 0.0)
