"""Dense matrix kernel: exact rational matrices, float matrices, QR, exp/log.

Exact arithmetic (RMatrix, backed by fractions.Fraction) carries every
algebra-level computation.  Floating point, forced by square roots,
exponentials and orthogonalization, works on plain float64 arrays:
matrix_exp, matrix_log and qr_positive take arrays of shape (..., n, n), a
stack of matrices at once, and scipy.linalg is imported only by the kernels
that call it.  The 2 x 2 logarithm is one closed-form stack whose only
per-matrix Python steps are math.log, math.atanh and math.atan, and it gives
every matrix the bits of the scalar formula.  FMatrix is only the checked
result of reading one JSON matrix: a square, finite float64 array of a
supported size.

The JSON codec has one rule for every value: a number or a "p/q" string is
read as its nearest float, and NaN, infinite values, booleans and values
beyond the float range are refused.  One reader, scalars_from_json, reads
every matrix, stack of matrices, element list and cochain: numbers in one
numpy conversion, "p/q" strings and refusals leaf by leaf.  A JSON matrix is
a row-major nested array of such values and is always read as an FMatrix.
The one exception: GA and R^k elements (holonomy images, developing samples)
take JSON numbers only, not the "p/q" strings that R^k scalar cochains take.
"""
from __future__ import annotations

import contextlib
import itertools
import math
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .errors import DimensionError, InputError, LogDomain, SingularInput

MAX_DIM = 8

Scalar = Union[int, Fraction]


# Comparison tolerances of the floating-point checks: EQ_TOL for values that
# should agree exactly, RESIDUAL_TOL for residuals of computed quantities.
EQ_TOL = 1e-10
RESIDUAL_TOL = 1e-9


def _check_dim(n: int):
    if not 2 <= n <= MAX_DIM:
        raise DimensionError(f"dimension {n} outside supported range 2..{MAX_DIM}")


class RMatrix:
    """Square matrix with exact rational entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        n = len(rows)
        _check_dim(n)
        frozen = []
        for r in rows:
            if len(r) != n:
                raise DimensionError("RMatrix rows must form a square array")
            frozen.append(tuple(Fraction(x) for x in r))
        self.n = n
        self.rows = tuple(frozen)

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __matmul__(self, other: "RMatrix") -> "RMatrix":
        if self.n != other.n:
            raise DimensionError(f"dimension mismatch {self.n} vs {other.n}")
        n = self.n
        return RMatrix(
            [
                [
                    sum(self.rows[i][k] * other.rows[k][j] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def __add__(self, other: "RMatrix") -> "RMatrix":
        if self.n != other.n:
            raise DimensionError(f"dimension mismatch {self.n} vs {other.n}")
        return RMatrix(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def __sub__(self, other: "RMatrix") -> "RMatrix":
        return self + (-other)

    def __neg__(self) -> "RMatrix":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "RMatrix":
        c = Fraction(c)
        return RMatrix([[c * x for x in row] for row in self.rows])

    def trace(self) -> Fraction:
        return sum(self.rows[i][i] for i in range(self.n))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def __eq__(self, other) -> bool:
        return isinstance(other, RMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"RMatrix({[[str(x) for x in row] for row in self.rows]})"


class FMatrix:
    """One float matrix read from JSON: a read-only n x n float64 array arr
    of finite entries, 2 <= n <= MAX_DIM."""

    __slots__ = ("n", "arr")

    def __init__(self, arr):
        a = np.array(arr, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"FMatrix requires a square array, got {a.shape}")
        _check_dim(a.shape[0])
        require_finite(a, "matrix row {}".format).flags.writeable = False
        self.n = a.shape[0]
        self.arr = a


def require_finite(a: np.ndarray, name: Callable[[int], str]) -> np.ndarray:
    """a itself, after an InputError "<name(i)> is not finite" for the first
    index i along the first axis of a whose slice holds a NaN or an infinite
    entry."""
    finite = np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise InputError(f"{name(bad[0])} is not finite")
    return a


def qr_positive(a: np.ndarray):
    """QR factorization of every matrix of a (..., n, n) float array, in one
    numpy qr call, normalized to a strictly positive diagonal of R.

    Uniqueness of (Q, R) under the positivity constraint is what makes this
    usable as a canonical chart on the invertible matrices.  The first
    matrix with |det| <= RESIDUAL_TOL raises SingularInput."""
    dets = np.abs(np.ravel(np.linalg.det(a)))
    bad = np.flatnonzero(~(dets > RESIDUAL_TOL))
    if bad.size:
        raise SingularInput(f"qr_positive: |det| = {dets[bad[0]]:.3e} too small")
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., np.newaxis, :], r * signs[..., :, np.newaxis]


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of every matrix of a (..., n, n) float array, in one
    scipy expm call (scaling and squaring).

    An overflow gives non-finite entries, which the caller refuses by
    naming what overflowed; numpy's overflow warning is silenced in favour
    of that error.
    """
    import scipy.linalg
    with np.errstate(over="ignore", invalid="ignore"):
        return scipy.linalg.expm(a)


# A bound of ||a - I||_2 below BALL_SCREEN settles the ball test.  It lies
# far enough below 1 that the rounding of a bound, a few ulps, cannot put in
# the ball a matrix whose LAPACK 2-norm is 1 or more.
BALL_SCREEN = 1.0 - 1e-9


def matrix_log(
    a: np.ndarray, name: Optional[Callable[[int], str]] = None
) -> np.ndarray:
    """Principal logarithm of every matrix of a (..., n, n) float array,
    restricted to the ball ||a - I||_2 < 1.

    n = 2 is the closed form of _log2, one stack over the whole array; n >= 3
    uses scipy's logm (inverse scaling and squaring, Al-Mohy & Higham 2012)
    on each matrix.  Both have the same domain.  The first matrix in stack
    order that fails a domain test raises LogDomain: the ball first, then a
    non-real logarithm.  The message starts "matrix_log:", or, given name,
    "matrix_log of <name(i)>:" for the index i of that matrix along the
    first axis of a stack.

    The ball test reads a bound of ||a - I||_2 first: for n = 2 its closed
    form, the largest singular value, and for n >= 3 the Frobenius norm,
    which is never smaller.  A bound below BALL_SCREEN puts a matrix in the
    ball; every other finite matrix gets LAPACK's 2-norm (one SVD), which
    decides its test and prints in its refusal.  A matrix with a NaN or inf
    entry gets the distance NaN with no SVD, and is refused as outside the
    ball.
    """
    n = a.shape[-1]
    x = a - np.eye(n)
    flat = np.reshape(x, (-1, n * n))
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 2:  # (|(p + t, r - q)| + |(p - t, q + r)|) / 2 of [[p, q], [r, t]]
            p, q, r, t = flat.T
            gaps = 0.5 * (np.hypot(p + t, r - q) + np.hypot(p - t, q + r))
        else:
            gaps = np.sqrt(np.sum(flat * flat, axis=-1))
    gaps = gaps.reshape(a.shape[:-2])
    near = ~(gaps < BALL_SCREEN)
    if near.any():
        x = x[near]
        finite = np.isfinite(x).all(axis=(-2, -1))
        norms = np.full(len(x), np.nan)
        norms[finite] = np.linalg.norm(x[finite], 2, axis=(-2, -1))
        gaps[near] = norms

    def refuse(k, far: bool) -> LogDomain:  # k: the index of the matrix
        where = "matrix_log" if name is None else f"matrix_log of {name(k[0])}"
        if far:
            return LogDomain(f"{where}: ||a - I|| = {gaps[k]:.6g} >= 1")
        return LogDomain(f"{where}: non-real principal logarithm")

    if n == 2:
        return _log2(a, gaps, refuse)
    import scipy.linalg
    out = np.empty(a.shape)
    for k in np.ndindex(a.shape[:-2]):
        if not gaps[k] < 1.0:
            raise refuse(k, True)
        x = scipy.linalg.logm(a[k])
        if not np.max(np.abs(np.imag(x))) <= RESIDUAL_TOL:
            raise refuse(k, False)
        out[k] = np.real(x)
    return out


LOG2_SERIES_CUTOFF = 1e-2  # |u| below which _log2 sums the series of F(u)


def _log2(a: np.ndarray, gaps: np.ndarray, refuse) -> np.ndarray:
    """Principal logarithm of every matrix of a real (..., 2, 2) stack a, whose
    distances ||a - I||_2, or bounds of them below BALL_SCREEN, are gaps,
    from Cayley-Hamilton.

    With s = tr(a)/2, d = det(a) and N = a - s*I, N^2 = (s^2 - d)*I, so for
    u = (s^2 - d)/s^2 the log series of I + N/s sums to
    log a = log(d)/2 * I + F(u)/s * N, where F(u) = sum_k u^k/(2k+1), that is
    atanh(sqrt(u))/sqrt(u) for u > 0 and atan(sqrt(-u))/sqrt(-u) for u < 0.
    It is real exactly when s > 0 and d > 0, which holds on ||a - I||_2 < 1.

    Each matrix gets the bits of this formula in Python floats: numpy's
    + - * / and sqrt round correctly, as Python's do, and math.log,
    math.atanh and math.atan run over lists.  The first matrix in stack
    order with a gap >= 1 (or NaN) or a non-real logarithm raises the
    LogDomain refuse(index, outside the ball) of matrix_log.
    """
    p, q, r, t = np.reshape(a, (-1, 4)).T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        s = 0.5 * (p + t)
        d = p * t - q * r
        u = np.where(s > 0, (s * s - d) / (s * s), 1.0)
    far = ~(np.ravel(gaps) < 1.0)
    # u < 1 iff s > 0 and d > 0, up to rounding
    bad = np.flatnonzero(far | ~((d > 0) & (u < 1.0)))
    if bad.size:
        raise refuse(np.unravel_index(bad[0], gaps.shape), far[bad[0]])
    f = np.empty_like(u)
    series = np.abs(u) < LOG2_SERIES_CUTOFF
    x, acc = u[series], 0.0
    for k in range(8, -1, -1):  # |u|^9 / 19 < 1e-19
        acc = acc * x + 1.0 / (2 * k + 1)
    f[series] = acc
    root = np.sqrt(np.abs(u))
    for keep, fn in ((~series & (u > 0), math.atanh), (~series & (u < 0), math.atan)):
        f[keep] = np.array(list(map(fn, root[keep].tolist()))) / root[keep]
    h = 0.5 * np.array(list(map(math.log, d.tolist())))
    c, n = f / s, 0.5 * (p - t)
    return np.stack([h + c * n, c * q, c * r, h - c * n], axis=-1).reshape(a.shape)


def scalar_from_json(v) -> float:
    """A JSON number or "p/q" string as its nearest float."""
    exact = v
    if isinstance(v, str):
        try:
            exact = Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational literal {v!r}: {e}") from e
    elif isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError(f"bad scalar {v!r}")
    try:
        x = float(exact)
    except OverflowError:
        raise InputError(f"scalar {v!r} is beyond the float range") from None
    if not math.isfinite(x):
        raise InputError(f"non-finite scalar {v!r}")
    return x


def numbers_from_json(obj, ndim: int):
    """obj as one float64 array if it is nested lists ndim deep (ndim = 0:
    one leaf) of finite JSON numbers, with no booleans or strings, else
    None: one numpy conversion and one finiteness check for all leaves."""
    leaves, shape = [obj], []
    for _ in range(ndim):
        if not set(map(type, leaves)) <= {list} or len(set(map(len, leaves))) > 1:
            return None
        shape.append(len(leaves[0]) if leaves else 0)
        leaves = list(itertools.chain.from_iterable(leaves))
    if set(map(type, leaves)) <= {int, float}:
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            out = np.array(leaves, dtype=np.float64)
            if np.isfinite(out).all():
                return out.reshape(shape)
    return None


def scalars_from_json(obj, ndim: int) -> np.ndarray:
    """The JSON scalars of obj, nested lists ndim deep, as one float64 array:
    numbers_from_json, else leaf by leaf in row-major order as
    scalar_from_json reads each, so that only "p/q" strings go through
    Fraction and the first bad leaf raises its InputError (a row that is not
    iterable raises TypeError, ragged rows ValueError)."""
    out = numbers_from_json(obj, ndim)
    return np.array(_read_leaves(obj, ndim), dtype=np.float64) if out is None else out


def _read_leaves(obj, ndim: int):
    return [_read_leaves(x, ndim - 1) for x in obj] if ndim else scalar_from_json(obj)


def matrix_from_json(rows) -> FMatrix:
    """An FMatrix from a nested array read by scalars_from_json."""
    if not isinstance(rows, list) or not rows:
        raise InputError("matrix must be a non-empty nested array")
    try:
        return FMatrix(scalars_from_json(rows, 2))
    except (TypeError, ValueError) as e:
        raise InputError(f"bad matrix: {e}") from e


def matrices_from_json(objs) -> Union[np.ndarray, List[np.ndarray]]:
    """A list of JSON matrices as one (N, n, n) float64 array when every one
    is read as an n x n FMatrix, else as the list of their arrays, one
    matrix_from_json each; the first matrix it refuses raises its error."""
    if set(map(type, objs)) <= {list} and all(objs):  # non-empty lists
        with contextlib.suppress(TypeError, ValueError):
            out = scalars_from_json(objs, 3)
            if out.shape[1] == out.shape[2] and 2 <= out.shape[1] <= MAX_DIM:
                return out
    return [matrix_from_json(g).arr for g in objs]
