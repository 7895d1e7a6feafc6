import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import random_sl, sup
from slnfib.errors import DimensionError, InputError, LogDomain, SingularInput
from slnfib.groups import GA
from slnfib.linalg import (
    EQ_TOL,
    LOG2_SERIES_CUTOFF,
    RESIDUAL_TOL,
    FMatrix,
    RMatrix,
    matrix_exp,
    matrix_log,
    qr_positive,
    scalar_from_json,
    scalars_from_json,
)


def as_float(m: RMatrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m.rows])


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
        assert np.linalg.det(np.eye(3)) == 1.0

    def test_triangular(self):
        assert np.linalg.det(np.array([[2.0, 1.0], [0.0, 0.5]])) == 1.0

    def test_diagonal(self):
        assert abs(np.linalg.det(np.diag([3.0, 1.0 / 3.0, 1.0])) - 1.0) < 1e-15

    def test_multiplicativity_random(self, rng):
        for n in (2, 3, 4):
            for _ in range(500):
                a = RMatrix(rng.integers(-5, 6, size=(n, n)).tolist())
                b = RMatrix(rng.integers(-5, 6, size=(n, n)).tolist())
                fa, fb = as_float(a), as_float(b)
                expect = np.linalg.det(fa) * np.linalg.det(fb)
                got = np.linalg.det(as_float(a @ b))
                assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))


class TestQRPositive:
    def test_rotation_input(self):
        th = 0.7
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        q, r = qr_positive(rot)
        assert sup(q - rot) < 1e-12
        assert sup(r - np.eye(2)) < 1e-12

    def test_upper_triangular_input(self):
        m = np.array([[2.0, 1.5], [0.0, 0.5]])
        q, r = qr_positive(m)
        assert sup(q - np.eye(2)) < 1e-12
        assert sup(r - m) < 1e-12

    def test_reconstruction_random_sl3(self, rng):
        for _ in range(50):
            a = random_sl(3, rng)
            q, r = qr_positive(a)
            assert sup(q @ r - a) < 1e-9
            assert sup(q.T @ q - np.eye(3)) < 1e-9
            assert all(r[i, i] > 0 for i in range(3))

    def test_uniqueness(self, rng):
        a = random_sl(4, rng)
        q, r = qr_positive(a)
        q2, r2 = qr_positive(q @ r)
        assert sup(q2 - q) < EQ_TOL
        assert sup(r2 - r) < EQ_TOL

    def test_singular_rejected(self):
        with pytest.raises(SingularInput):
            qr_positive(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_stack_matches_each_matrix(self, rng):
        # one call on a stack gives each matrix's own factors, bit for bit
        stack = np.array([random_sl(n, rng) for n in (3,) * 6])
        q, r = qr_positive(stack)
        for a, qa, ra in zip(stack, q, r):
            q1, r1 = qr_positive(a)
            assert np.array_equal(q1, qa) and np.array_equal(r1, ra)

    def test_first_singular_slice_raises(self):
        stack = np.array([np.eye(2), np.diag([1e-11, 1.0]), np.zeros((2, 2))])
        with pytest.raises(SingularInput, match=r"\|det\| = 1\.000e-11 too small"):
            qr_positive(stack)


class TestExpLog:
    def test_exp_zero(self):
        assert np.abs(matrix_exp(np.zeros((3, 3))) - np.eye(3)).max() < 1e-14

    def test_exp_diagonal_against_series(self):
        t = 0.37
        got = matrix_exp(np.array([[t, 0.0], [0.0, -t]]))
        # power-series oracle on the diagonal entries
        series = sum(t ** k / math.factorial(k) for k in range(30))
        series_neg = sum((-t) ** k / math.factorial(k) for k in range(30))
        assert abs(got[0, 0] - series) < 1e-12
        assert abs(got[1, 1] - series_neg) < 1e-12
        assert abs(got[0, 1]) < 1e-14

    def test_log_nilpotent_terminates(self):
        x = np.array([[0.0, 0.1], [0.0, 0.0]])
        assert np.abs(matrix_log(matrix_exp(x)) - x).max() < 1e-12

    def test_roundtrip_diagonal_family(self):
        for t in (0.05, 0.2, 0.4):
            a = np.array([[math.exp(t), 0.0], [0.0, math.exp(-t)]])
            assert np.abs(matrix_exp(matrix_log(a)) - a).max() < RESIDUAL_TOL

    def test_log_domain_guard(self):
        with pytest.raises(LogDomain):
            matrix_log(np.array([[-1.0, 0.0], [0.0, -1.0]]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_log_domain_gap_prints_six_significant_digits(self, n):
        # a gap of 1e300 prints as 1e+300, not as its 301 digits
        a = np.diag([1e300] + [1.0] * (n - 2) + [1e-300])
        with pytest.raises(LogDomain) as e:
            matrix_log(a)
        assert str(e.value) == "matrix_log: ||a - I|| = 1e+300 >= 1"

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("far", [True, False], ids=["ball", "non-real"])
    def test_log_domain_names_the_first_bad_row_of_a_stack(self, n, far, monkeypatch):
        # rows 0 and 2 of a (3, 2, n, n) stack hold a bad matrix; the name
        # gets the index of the first along the first axis.  A real matrix in
        # the ball has a real logarithm, so the non-real case reads every
        # distance to I as 0, as TestLog2Stack does
        a = np.broadcast_to(np.eye(n), (3, 2, n, n)).copy()
        a[0, 1, -1, -1] = a[2, 0, -1, -1] = 2.5 if far else -1.0
        a[0, 1, 0, 0] = a[2, 0, 0, 0] = 1.0 if far else -1.0
        message = "||a - I|| = 1.5 >= 1" if far else "non-real principal logarithm"
        if not far:
            monkeypatch.setattr(
                np.linalg, "norm", lambda x, *args, **kwargs: np.zeros(np.shape(x)[:-2])
            )
        with pytest.raises(LogDomain) as e:
            matrix_log(a, lambda i: f"row {i}")
        assert str(e.value) == f"matrix_log of row 0: {message}"


def assert_matches_logm(a):
    """The closed-form 2x2 log against scipy's inverse scaling and squaring,
    entrywise within 1e-13 * max(1, |ref|)."""
    got = matrix_log(np.array(a, dtype=float))
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
            matrix_log(np.array([[2.5, 0.0], [0.0, 0.4]]))

    def test_sl3_roundtrip_on_scipy_path(self, rng):
        for _ in range(20):
            a = random_sl(3, rng, scale=0.15)
            assert np.abs(matrix_exp(matrix_log(a)) - a).max() < 1e-12


def log2_scalar(rows):
    """The closed-form principal logarithm of one real 2x2 matrix, in Python
    floats: with s = tr/2, d = det and u = (s^2 - d)/s^2, log a = log(d)/2 I
    + F(u)/s (a - s I) for F(u) = sum_k u^k/(2k+1), summed by Horner below
    LOG2_SERIES_CUTOFF and atanh(sqrt(u))/sqrt(u) or atan(sqrt(-u))/sqrt(-u)
    above it."""
    (p, q), (r, t) = rows
    s = 0.5 * (p + t)
    d = p * t - q * r
    u = (s * s - d) / (s * s) if s > 0 else 1.0
    if not (d > 0 and u < 1.0):
        raise LogDomain("matrix_log: non-real principal logarithm")
    if abs(u) < LOG2_SERIES_CUTOFF:
        f = 0.0
        for k in range(8, -1, -1):
            f = f * u + 1.0 / (2 * k + 1)
    elif u > 0:
        f = math.atanh(math.sqrt(u)) / math.sqrt(u)
    else:
        f = math.atan(math.sqrt(-u)) / math.sqrt(-u)
    h, c, n = 0.5 * math.log(d), f / s, 0.5 * (p - t)
    return [[h + c * n, c * q], [c * r, h - c * n]]


def log2_loop(a):
    """matrix_log of a (..., 2, 2) stack as a loop over its matrices in stack
    order: the ball test, then log2_scalar, each matrix refused by the first
    that fails."""
    gaps = np.asarray(np.linalg.norm(a - np.eye(2), 2, axis=(-2, -1)))
    out = np.empty(a.shape)
    for k in np.ndindex(a.shape[:-2]):
        if not gaps[k] < 1.0:
            raise LogDomain(f"matrix_log: ||a - I|| = {gaps[k]:.6g} >= 1")
        out[k] = log2_scalar(a[k].tolist())
    return out


def log_outcome(log, a):
    """The bytes and shape of log(a), or the message of its LogDomain (of a
    LinAlgError, after its name); any numpy warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = log(a)
        except LogDomain as e:
            return str(e)
        except np.linalg.LinAlgError as e:
            return f"LinAlgError: {e}"
    return got.shape, got.tobytes()


def logm_loop(a):
    """matrix_log of a (..., n, n) stack, n >= 3, as one 2-norm per matrix
    (each its own SVD), then a loop in stack order: the ball test, then
    scipy's logm and its real part."""
    n = a.shape[-1]
    gaps = {k: np.linalg.norm(a[k] - np.eye(n), 2) for k in np.ndindex(a.shape[:-2])}
    out = np.empty(a.shape)
    for k, gap in gaps.items():
        if not gap < 1.0:
            raise LogDomain(f"matrix_log: ||a - I|| = {gap:.6g} >= 1")
        x = scipy.linalg.logm(a[k])
        if not np.max(np.abs(np.imag(x))) <= RESIDUAL_TOL:
            raise LogDomain("matrix_log: non-real principal logarithm")
        out[k] = np.real(x)
    return out


def near_ball_boundary(n):
    """n x n matrices a at the edge of the ball ||a - I||_2 < 1, each named:
    a bound of ||a - I||_2 in [BALL_SCREEN, 1) (closed form for n = 2,
    Frobenius for n >= 3), 2-norms a few ulps from 1 on both sides, and NaN
    and infinite entries.  Each reaches the LAPACK 2-norm of matrix_log."""
    def at(x):
        a = np.eye(n)
        a[:len(x), :len(x)] += x
        return a

    turn = np.array([[0.6, -0.8], [0.8, 0.6]])
    if n == 2:  # a 2-norm 1 - 5e-10, off the axes
        c, s = math.cos(0.3), math.sin(0.3)
        edge = at((1.0 - 5e-10) * np.array([[c, -s], [s, c]]) @ np.diag([1.0, 0.4]) @ turn)
    else:  # Frobenius norm 1 - 5e-10, 2-norm 0.8
        edge = at(np.diag([0.6, math.sqrt(0.64 - 1e-9)]))
    out = {"screen-edge": edge, "turn": at(turn), "turn-scaled": at(turn * (1 + 2.0 ** -52))}
    for k in (-2, -1, 0, 1, 2):  # a_00 - 1 = 1 + k ulp, exactly
        out[f"ulp{k:+d}"] = at(np.diag([1.0 + k * 2.0 ** (-52 if k < 0 else -51), 0.2]))
    for v in (math.nan, math.inf, -math.inf):
        a = np.eye(n)
        a[0, 1] = v
        out[f"entry-{v}"] = a
    return out


def boundary_stacks(n):
    """(2, 3, n, n) stacks of the matrices of near_ball_boundary(n) and
    matrices well inside and outside the ball; the last is in the ball."""
    m = near_ball_boundary(n)
    good, far = np.eye(n) + 0.1 * np.eye(n, k=1), np.diag([2.5] + [1.0] * (n - 1))
    rows = [
        [good, m["screen-edge"], m["ulp-1"], m["ulp+1"], good, m["turn"]],
        [m["screen-edge"], m["ulp-2"], good, m["ulp+0"], far, m["turn-scaled"]],
        [good, far, m["entry-inf"], good, m["ulp+2"], good],
        [m["ulp-1"], m["entry--inf"], good, m["entry-nan"], good, far],
        [good, m["screen-edge"], m["ulp-1"], m["ulp-2"], good, m["screen-edge"]],
    ]
    return {f"stack{i}": np.reshape(r, (2, 3, n, n)) for i, r in enumerate(rows)}


# 2x2 matrices: I + scale * X with scale from 1e-12 to 0.9 and |X_ij| <= 2
# (some outside the ball), with_u on both sides of the series cutoff, and GA
# elements
NEAR_IDENTITY = st.builds(
    lambda x, e: np.eye(2) + 10.0 ** e * np.reshape(x, (2, 2)),
    st.lists(st.floats(-2, 2), min_size=4, max_size=4),
    st.floats(-12, math.log10(0.9)),
)
AT_CUTOFF = st.builds(
    lambda sign, f, s: np.array(with_u(sign * f * LOG2_SERIES_CUTOFF, s)),
    st.sampled_from([1.0, -1.0]),
    st.floats(0.25, 4.0),
    st.floats(0.9, 1.1),
)
GA_MATRIX = st.builds(
    lambda loga, b: GA().matrix(np.array([math.exp(loga), b])),
    st.floats(-0.6, 0.6),
    st.floats(-0.6, 0.6),
)


@st.composite
def log2_stacks(draw):
    """A (2, 2), (k, 2, 2) or (j, k, 2, 2) stack of the matrices above."""
    lead = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    count = math.prod(lead)
    mats = draw(st.lists(st.one_of(NEAR_IDENTITY, AT_CUTOFF, GA_MATRIX),
                         min_size=count, max_size=count))
    return np.reshape(mats, lead + (2, 2))


class TestLog2Stack:
    """The n = 2 stack of matrix_log against the scalar closed form, bit for
    bit, and refusal for refusal."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(log2_stacks())
    def test_stack_equals_the_scalar_closed_form(self, a):
        assert log_outcome(matrix_log, a) == log_outcome(log2_loop, a)

    @pytest.mark.parametrize("u", [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 0.99, -50.0])
    def test_edge_values_of_u(self, u):
        a = np.array(with_u(u, 1.0))
        assert log_outcome(matrix_log, a) == log_outcome(log2_loop, a)

    GOOD = [[1.1, 0.2], [0.0, 1.0 / 1.1]]

    @pytest.mark.parametrize(
        "bad",
        [
            # the first bad matrix outside the ball, then more of both kinds
            [GOOD, [[2.5, 0.0], [0.0, 0.4]], [[-1.0, 0.0], [0.0, -1.0]], GOOD],
            [GOOD, GOOD, [[-1.0, 0.0], [0.0, -1.0]], [[2.5, 0.0], [0.0, 0.4]]],
            [GOOD, [[1e300, 1e300], [-1e300, 1e300]]],
        ],
    )
    def test_first_bad_matrix_in_stack_order_is_named(self, bad):
        a = np.array(bad)
        expect = log_outcome(log2_loop, a)
        assert expect.startswith("matrix_log: ||a - I|| = ")
        assert log_outcome(matrix_log, a) == expect
        assert log_outcome(matrix_log, a.reshape(2, -1, 2, 2)) == expect

    @pytest.mark.parametrize(
        "bad",
        [
            [[-1.0, 0.0], [0.0, -1.0]],  # s < 0
            [[2.0, 0.0], [0.0, -1.0]],  # det < 0
            [[1.0, 1.0], [1.0, 1.0]],  # det = 0
            [[math.nan, 0.0], [0.0, 1.0]],
            [[1e300, 1e300], [-1e300, 1e300]],  # det overflows
            [[math.inf, 0.0], [0.0, 1.0]],
        ],
    )
    def test_non_real_logarithm_inside_the_ball(self, bad, monkeypatch):
        """With every distance to I read as 0, the first matrix with no real
        logarithm is refused as non-real, with no numpy warning."""
        monkeypatch.setattr(
            np.linalg, "norm", lambda x, *args, **kwargs: np.zeros(np.shape(x)[:-2])
        )
        a = np.array([self.GOOD, bad, [[2.5, 0.0], [0.0, 0.4]]])
        expect = log_outcome(log2_loop, a)
        assert expect == "matrix_log: non-real principal logarithm"
        assert log_outcome(matrix_log, a) == expect


class TestBallBoundary:
    """Matrices at the edge of the log ball, where matrix_log leaves the
    ball test to LAPACK's 2-norm, against the loops that take that 2-norm
    for every matrix: log2_loop for n = 2 and logm_loop for n = 3, bit for
    bit, and refusal for refusal."""

    @pytest.mark.parametrize("name", list(near_ball_boundary(2)) + list(boundary_stacks(2)))
    def test_n2_against_the_scalar_closed_form(self, name, monkeypatch):
        a = {**near_ball_boundary(2), **boundary_stacks(2)}[name]
        self.assert_same(a, log2_loop, monkeypatch)

    @pytest.mark.parametrize("name", list(near_ball_boundary(3)) + list(boundary_stacks(3)))
    def test_n3_against_logm(self, name, monkeypatch):
        a = {**near_ball_boundary(3), **boundary_stacks(3)}[name]
        self.assert_same(a, logm_loop, monkeypatch)

    @staticmethod
    def assert_same(a, loop, monkeypatch):
        expect = log_outcome(loop, a)
        norms, norm = [], np.linalg.norm
        monkeypatch.setattr(
            np.linalg, "norm", lambda x, *args, **kw: norms.append(1) or norm(x, *args, **kw)
        )
        assert log_outcome(matrix_log, a) == expect
        assert len(norms) == 1  # the bound did not settle every matrix

    def test_screened_matrices_take_no_svd(self, monkeypatch):
        # bounds below BALL_SCREEN: 1 - 2e-9 in closed form, and Frobenius
        # 0.99 for 2-norm 0.7
        c, s = math.cos(0.3), math.sin(0.3)
        a2 = np.eye(2) + (1.0 - 2e-9) * np.array([[c, -s], [s, c]]) @ np.diag([1.0, 0.4])
        a3 = np.eye(3) + np.diag([0.7, 0.7, 0.0])
        expect = log_outcome(log2_loop, a2), log_outcome(logm_loop, a3)
        monkeypatch.setattr(np.linalg, "norm", None)
        assert (log_outcome(matrix_log, a2), log_outcome(matrix_log, a3)) == expect


class TestDimensionCap:
    def test_rejects_large(self):
        with pytest.raises(DimensionError):
            RMatrix.identity(9)

    def test_rejects_tiny(self):
        with pytest.raises(DimensionError):
            FMatrix([[1.0]])


def test_fmatrix_rejects_nonfinite():
    with pytest.raises(InputError, match="^matrix row 0 is not finite$"):
        FMatrix([[1.0, float("nan")], [0.0, 1.0]])


class TestNaNVerdicts:
    """A NaN residual fails each tolerance test instead of passing it."""

    def test_nan_determinant_is_singular(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "det", lambda a: math.nan)
        with pytest.raises(SingularInput, match="nan too small"):
            qr_positive(np.eye(2))

    def test_nan_distance_to_identity_is_outside_the_ball(self, monkeypatch):
        # a - I = diag(1, -0.5): its bound, 1, leaves the test to the 2-norm
        monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: math.nan)
        with pytest.raises(LogDomain, match="= nan >= 1"):
            matrix_log(np.diag([2.0, 0.5]))

    def test_nan_imaginary_part_is_not_real(self, monkeypatch):
        nan_imag = np.full((3, 3), complex(0.0, math.nan))
        monkeypatch.setattr(scipy.linalg, "logm", lambda a: nan_imag)
        with pytest.raises(LogDomain, match="non-real principal logarithm"):
            matrix_log(np.eye(3))


# JSON leaves: ints (also past 2^53 and past the float range), floats (also
# NaN and infinite), "p/q" strings and strings that are none, booleans, null
LEAVES = st.one_of(
    st.integers(-(10 ** 6), 10 ** 6),
    st.integers(2 ** 53 - 2, 10 ** 30),
    st.integers(10 ** 308, 10 ** 309).map(lambda x: x * (-1) ** (x % 2)),
    st.floats(),
    st.fractions(max_denominator=10 ** 6).map(lambda f: f"{f.numerator}/{f.denominator}"),
    st.sampled_from(["x", "1/0", "", " 2/3", "1e400", "nan", "-0"]),
    st.booleans(),
    st.none(),
)


class TestScalarReader:
    """scalars_from_json against a per-leaf oracle: each accepted leaf is
    float(Fraction(leaf)), and a refusal is the message scalar_from_json
    gives for the first bad leaf in row-major order."""

    @staticmethod
    def first_refusal(leaves):
        for x in leaves:
            try:
                scalar_from_json(x)
            except InputError as e:
                return str(e)
        return None

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(LEAVES, min_size=1, max_size=3), min_size=1, max_size=3))
    def test_nested_rows(self, rows):
        refusal = self.first_refusal([x for row in rows for x in row])
        if refusal is not None:
            with pytest.raises(InputError) as e:
                scalars_from_json(rows, 2)
            assert str(e.value) == refusal
        elif len({len(row) for row in rows}) > 1:
            with pytest.raises(ValueError) as e:
                scalars_from_json(rows, 2)
            assert type(e.value) is ValueError  # ragged rows, no bad leaf
        else:
            got = scalars_from_json(rows, 2)
            assert got.dtype == np.float64 and got.shape == (len(rows), len(rows[0]))
            assert got.tolist() == [[float(Fraction(x)) for x in row] for row in rows]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(LEAVES, max_size=6))
    def test_flat_list(self, leaves):
        refusal = self.first_refusal(leaves)
        if refusal is not None:
            with pytest.raises(InputError) as e:
                scalars_from_json(leaves, 1)
            assert str(e.value) == refusal
        else:
            got = scalars_from_json(leaves, 1)
            assert got.shape == (len(leaves),)
            assert got.tolist() == [float(Fraction(x)) for x in leaves]
