import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from conftest import random_sl
from slnfib.errors import DimensionError, LogDomain, SingularInput
from slnfib.linalg import (
    EQ_TOL,
    LOG2_SERIES_CUTOFF,
    RESIDUAL_TOL,
    FMatrix,
    RMatrix,
    matrix_exp,
    matrix_log,
    qr_positive,
    rational_rank,
)


def elementary(i, j, n):
    return RMatrix([[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)])


class TestMultiply:
    def test_identity_absorbs(self):
        m = RMatrix([[1, 2], [3, 4]])
        assert RMatrix.identity(2) @ m == m

    def test_elementary_product(self):
        # E12 . E21 = E11 by direct hand multiplication
        assert elementary(0, 1, 2) @ elementary(1, 0, 2) == elementary(0, 0, 2)

    def test_nilpotent_square(self):
        e12 = elementary(0, 1, 2)
        assert (e12 @ e12).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            RMatrix.identity(2) @ RMatrix.identity(3)


class TestDeterminant:
    """The float determinant that the SL(n) and QR input checks read."""

    def test_identity(self):
        assert FMatrix.identity(3).det() == 1.0

    def test_triangular(self):
        assert FMatrix([[2.0, 1.0], [0.0, 0.5]]).det() == 1.0

    def test_diagonal(self):
        assert abs(FMatrix(np.diag([3.0, 1.0 / 3.0, 1.0])).det() - 1.0) < 1e-15

    def test_multiplicativity_random(self, rng):
        for n in (2, 3, 4):
            for _ in range(500):
                a = RMatrix(rng.integers(-5, 6, size=(n, n)).tolist())
                b = RMatrix(rng.integers(-5, 6, size=(n, n)).tolist())
                fa, fb = a.to_float(), b.to_float()
                expect = fa.det() * fb.det()
                got = (a @ b).to_float().det()
                assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))


class TestQRPositive:
    def test_rotation_input(self):
        th = 0.7
        rot = FMatrix([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        q, r = qr_positive(rot)
        assert q.allclose(rot, 1e-12)
        assert r.allclose(FMatrix.identity(2), 1e-12)

    def test_upper_triangular_input(self):
        m = FMatrix([[2.0, 1.5], [0.0, 0.5]])
        q, r = qr_positive(m)
        assert q.allclose(FMatrix.identity(2), 1e-12)
        assert r.allclose(m, 1e-12)

    def test_reconstruction_random_sl3(self, rng):
        for _ in range(50):
            a = random_sl(3, rng)
            q, r = qr_positive(a)
            assert (q @ r).dist(a) < 1e-9
            assert (q.transpose() @ q).dist(FMatrix.identity(3)) < 1e-9
            assert all(r[i, i] > 0 for i in range(3))

    def test_uniqueness(self, rng):
        a = random_sl(4, rng)
        q, r = qr_positive(a)
        q2, r2 = qr_positive(q @ r)
        assert q2.dist(q) < EQ_TOL
        assert r2.dist(r) < EQ_TOL

    def test_singular_rejected(self):
        with pytest.raises(SingularInput):
            qr_positive(FMatrix([[1.0, 1.0], [1.0, 1.0]]))


class TestExpLog:
    def test_exp_zero(self):
        assert matrix_exp(FMatrix(np.zeros((3, 3)))).allclose(FMatrix.identity(3), 1e-14)

    def test_exp_diagonal_against_series(self):
        t = 0.37
        got = matrix_exp(FMatrix([[t, 0.0], [0.0, -t]]))
        # power-series oracle on the diagonal entries
        series = sum(t ** k / math.factorial(k) for k in range(30))
        series_neg = sum((-t) ** k / math.factorial(k) for k in range(30))
        assert abs(got[0, 0] - series) < 1e-12
        assert abs(got[1, 1] - series_neg) < 1e-12
        assert abs(got[0, 1]) < 1e-14

    def test_log_nilpotent_terminates(self):
        x = FMatrix([[0.0, 0.1], [0.0, 0.0]])
        assert matrix_log(matrix_exp(x)).dist(x) < 1e-12

    def test_roundtrip_diagonal_family(self):
        for t in (0.05, 0.2, 0.4):
            a = FMatrix([[math.exp(t), 0.0], [0.0, math.exp(-t)]])
            assert matrix_exp(matrix_log(a)).dist(a) < RESIDUAL_TOL

    def test_log_domain_guard(self):
        with pytest.raises(LogDomain):
            matrix_log(FMatrix([[-1.0, 0.0], [0.0, -1.0]]))


def assert_matches_logm(a):
    """The closed-form 2x2 log against scipy's inverse scaling and squaring,
    entrywise within 1e-13 * max(1, |ref|)."""
    got = matrix_log(FMatrix(a)).arr
    ref = scipy.linalg.logm(np.array(a, dtype=float))
    assert np.max(np.abs(np.imag(ref))) == 0.0
    ref = np.real(ref)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def with_u(u, s=1.0):
    """s * (I + M) with M^2 = u * I, so tr/2 = s and (s^2 - det)/s^2 = u."""
    return [[s, s * 0.5], [s * 2.0 * u, s]]


class TestClosedFormLog2:
    @pytest.mark.parametrize(
        "a",
        [
            [[1.3, 0.2], [0.1, 0.8]],  # hyperbolic: real distinct eigenvalues
            [[math.exp(0.4), 0.0], [0.0, math.exp(-0.4)]],
            [[math.cos(0.6), -math.sin(0.6)], [math.sin(0.6), math.cos(0.6)]],  # elliptic
            [[0.9, -0.5], [0.4, 1.0]],
            [[1.0, 0.7], [0.0, 1.0]],  # parabolic (unipotent)
            [[1.0, 0.0], [-0.4, 1.0]],
            [[1.1, 0.3], [-1.0 / 30, 0.9 + 1.0 / 11]],  # det != 1
            [[0.6, 0.1], [0.2, 0.7]],
        ],
    )
    def test_matches_scipy(self, a):
        assert_matches_logm(a)

    @pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 2.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_both_sides_of_series_cutoff(self, factor, sign):
        for s in (1.0, 0.9, 1.2):
            assert_matches_logm(with_u(sign * factor * LOG2_SERIES_CUTOFF, s))

    def test_random_against_scipy(self, rng):
        for _ in range(500):
            a = np.eye(2) + rng.normal(size=(2, 2)) * rng.choice([1e-6, 0.05, 0.3])
            if np.linalg.norm(a - np.eye(2), 2) < 1.0:
                assert_matches_logm(a)

    def test_positive_det_outside_ball(self):
        with pytest.raises(LogDomain):
            matrix_log(FMatrix([[2.5, 0.0], [0.0, 0.4]]))

    def test_sl3_roundtrip_on_scipy_path(self, rng):
        for _ in range(20):
            a = random_sl(3, rng, scale=0.15)
            assert matrix_exp(matrix_log(a)).dist(a) < 1e-12


class TestDimensionCap:
    def test_rejects_large(self):
        with pytest.raises(DimensionError):
            RMatrix.identity(9)

    def test_rejects_tiny(self):
        with pytest.raises(DimensionError):
            FMatrix([[1.0]])


def test_rational_rank():
    vecs = [
        [Fraction(1), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(1), Fraction(2)],
    ]
    assert rational_rank(vecs) == 2


def test_fmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        FMatrix([[1.0, float("nan")], [0.0, 1.0]])
