"""Dense matrix kernel: exact rational matrices, float matrices, QR, exp/log.

Exact arithmetic (RMatrix, backed by fractions.Fraction) carries every
algebra-level computation; FMatrix (numpy float64) is used only where square
roots, exponentials or orthogonalization force floating point.  Both have a
JSON form: row-major nested arrays of plain numbers, with exact rationals as
"p/q" strings.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

import numpy as np
import scipy.linalg

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

    @classmethod
    def zeros(cls, n: int) -> "RMatrix":
        return cls([[0] * n for _ in range(n)])

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

    def to_float(self) -> "FMatrix":
        return FMatrix([[float(x) for x in row] for row in self.rows])

    def __repr__(self):
        return f"RMatrix({[[str(x) for x in row] for row in self.rows]})"


def rational_rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a family of exact-rational vectors, by Gaussian elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    col_count = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < col_count:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] * inv
                for c in range(col, col_count):
                    rows[r][c] -= f * rows[rank][c]
        rank += 1
        col += 1
    return rank


class FMatrix:
    """Square matrix of finite float64 entries."""

    __slots__ = ("n", "arr")

    def __init__(self, arr):
        a = np.array(arr, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"FMatrix requires a square array, got {a.shape}")
        _check_dim(a.shape[0])
        if not np.all(np.isfinite(a)):
            raise InputError("FMatrix entries must be finite")
        a.flags.writeable = False
        self.n = a.shape[0]
        self.arr = a

    @classmethod
    def identity(cls, n: int) -> "FMatrix":
        return cls(np.eye(n))

    def __getitem__(self, ij) -> float:
        return float(self.arr[ij])

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        if self.n != other.n:
            raise DimensionError(f"dimension mismatch {self.n} vs {other.n}")
        return FMatrix(self.arr @ other.arr)

    def __add__(self, other: "FMatrix") -> "FMatrix":
        return FMatrix(self.arr + other.arr)

    def __sub__(self, other: "FMatrix") -> "FMatrix":
        return FMatrix(self.arr - other.arr)

    def __neg__(self) -> "FMatrix":
        return FMatrix(-self.arr)

    def scale(self, c: float) -> "FMatrix":
        return FMatrix(c * self.arr)

    def transpose(self) -> "FMatrix":
        return FMatrix(self.arr.T)

    def trace(self) -> float:
        return float(np.trace(self.arr))

    def det(self) -> float:
        return float(np.linalg.det(self.arr))

    def inv(self) -> "FMatrix":
        return FMatrix(np.linalg.inv(self.arr))

    def to_float(self) -> "FMatrix":
        return self

    def sup(self) -> float:
        """Largest absolute entry."""
        return float(np.max(np.abs(self.arr)))

    def dist(self, other: "FMatrix") -> float:
        return (self - other).sup()

    def allclose(self, other: "FMatrix", tol: float) -> bool:
        return self.dist(other) < tol

    def __repr__(self):
        return f"FMatrix({self.arr.tolist()})"


def qr_positive(a: FMatrix):
    """QR factorization normalized to a strictly positive diagonal of R.

    Uniqueness of (Q, R) under the positivity constraint is what makes this
    usable as a canonical chart on the invertible matrices.
    """
    if abs(a.det()) <= RESIDUAL_TOL:
        raise SingularInput(f"qr_positive: |det| = {abs(a.det()):.3e} too small")
    q, r = np.linalg.qr(a.arr)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs[np.newaxis, :]
    r = r * signs[:, np.newaxis]
    return FMatrix(q), FMatrix(r)


def matrix_exp(a: FMatrix) -> FMatrix:
    """Matrix exponential (scaling-and-squaring, via scipy).

    An overflow gives non-finite entries, which FMatrix rejects with
    InputError; numpy's overflow warning is silenced in favour of that error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(a.arr)
    return FMatrix(out)


def matrix_log(a: FMatrix) -> FMatrix:
    """Principal logarithm, restricted to the ball ||a - I||_2 < 1.

    n = 2 uses the closed form of _log2; n >= 3 uses scipy's logm (inverse
    scaling and squaring, Al-Mohy & Higham 2012).  Both have the same domain.
    """
    gap = float(np.linalg.norm(a.arr - np.eye(a.n), 2))
    if gap >= 1.0:
        raise LogDomain(f"matrix_log: ||a - I|| = {gap:.4f} >= 1")
    if a.n == 2:
        return FMatrix(_log2(a.arr.tolist()))
    out = scipy.linalg.logm(a.arr)
    if np.max(np.abs(np.imag(out))) > RESIDUAL_TOL:
        raise LogDomain("matrix_log: non-real principal logarithm")
    return FMatrix(np.real(out))


LOG2_SERIES_CUTOFF = 1e-2  # |u| below which _log2 sums the series of F(u)


def _log2(rows):
    """Principal logarithm of a real 2x2 matrix a from Cayley-Hamilton.

    With s = tr(a)/2, d = det(a) and N = a - s*I, N^2 = (s^2 - d)*I, so for
    u = (s^2 - d)/s^2 the log series of I + N/s sums to
    log a = log(d)/2 * I + F(u)/s * N, where F(u) = sum_k u^k/(2k+1), that is
    atanh(sqrt(u))/sqrt(u) for u > 0 and atan(sqrt(-u))/sqrt(-u) for u < 0.
    It is real exactly when s > 0 and d > 0, which holds on ||a - I||_2 < 1.
    """
    (p, q), (r, t) = rows
    s = 0.5 * (p + t)
    d = p * t - q * r
    u = (s * s - d) / (s * s) if s > 0 else 1.0
    if not (d > 0 and u < 1.0):  # u < 1 iff s > 0 and d > 0, up to rounding
        raise LogDomain("matrix_log: non-real principal logarithm")
    if abs(u) < LOG2_SERIES_CUTOFF:
        f = 0.0
        for k in range(8, -1, -1):  # |u|^9 / 19 < 1e-19
            f = f * u + 1.0 / (2 * k + 1)
    elif u > 0:
        f = math.atanh(math.sqrt(u)) / math.sqrt(u)
    else:
        f = math.atan(math.sqrt(-u)) / math.sqrt(-u)
    h, c, n = 0.5 * math.log(d), f / s, 0.5 * (p - t)
    return [[h + c * n, c * q], [c * r, h - c * n]]


def scalar_to_json(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return float(v)


def scalar_from_json(v) -> Union[float, Fraction]:
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad rational literal {v!r}: {e}") from e
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError(f"bad scalar {v!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise InputError(f"non-finite scalar {v!r}")
    return Fraction(v) if isinstance(v, int) else float(v)


def matrix_to_json(m):
    if isinstance(m, RMatrix):
        return [[scalar_to_json(m[i, j]) for j in range(m.n)] for i in range(m.n)]
    return [[m[i, j] for j in range(m.n)] for i in range(m.n)]


def matrix_from_json(rows) -> Union[RMatrix, FMatrix]:
    """RMatrix if any entry is a "p/q" string, FMatrix otherwise."""
    if not isinstance(rows, list) or not rows:
        raise InputError("matrix must be a non-empty nested array")
    try:
        if any(isinstance(x, str) for row in rows for x in row):
            return RMatrix([[scalar_from_json(x) for x in row] for row in rows])
        return FMatrix([[float(x) for x in row] for row in rows])
    except (TypeError, ValueError) as e:
        raise InputError(f"bad matrix: {e}") from e
