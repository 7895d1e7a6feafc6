"""Group-level decompositions of SL(n, R).

* GAElement, the plain (a, b) row of one affine map x -> ax + b; whatever
  takes it as a GA element checks a > 0 by require_ga.
* SL(n, R) = SO(n) x R^{n(n+1)/2 - 1} via positive-diagonal QR, with the
  mirrored AN-left variant used when left holonomy must act on the vector
  chart; both take (..., n, n) stacks.
* One type per target group of a foliation (GA, SL(n), R^k), acting on
  float arrays of elements: (..., 2) rows (a, b), (..., n, n) matrices or
  (..., k) vectors; and the parser of the JSON "group" value that names it.
  GA embeds in SL(2) by (a, b) -> (1/sqrt(a)) [[a, b], [0, 1]].
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import InputError, SingularInput
from .linalg import (
    EQ_TOL, matrices_from_json, numbers_from_json, qr_positive, require_finite
)


class GAElement(NamedTuple):
    """The (a, b) row of the affine map x -> a*x + b, unchecked."""

    a: float
    b: float


def require_unimodular(g: np.ndarray, name=lambda i: "matrix", error=SingularInput):
    """Raise error, naming it name(index), for the first matrix of the
    (..., n, n) array g in stack order with |det - 1| > 100 EQ_TOL (or NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        dets = np.ravel(np.linalg.det(g))
    bad = np.flatnonzero(~(np.abs(dets - 1.0) <= EQ_TOL * 100))
    if bad.size:
        n, det = g.shape[-1], dets[bad[0]]
        raise error(f"{name(bad[0])} has det {det:.12g}, not in SL({n})")


def require_ga(g: np.ndarray, name=lambda i: "element"):
    """Raise InputError, naming it name(index), for the first row (a, b) of
    the (..., 2) array g in stack order with a not > 0 (NaN included)."""
    a = np.ravel(g[..., 0])
    bad = np.flatnonzero(~(a > 0))
    if bad.size:
        raise InputError(f"{name(bad[0])} has a={a[bad[0]]:.12g}, not in GA")


def chart_length(n: int) -> int:
    """The length of the vector chart of the AN part of SL(n): n - 1
    log-diagonal coordinates of R (the last one is implied by det R = 1),
    then the strictly-upper entries of R divided by their row diagonal,
    row-major.  Its last two coordinates are the R^2 factor."""
    return n * (n + 1) // 2 - 1


def _chart_from_r(r: np.ndarray) -> np.ndarray:
    """The (..., n(n+1)/2 - 1) charts of a (..., n, n) stack of R factors.
    math.log, not numpy's log, which differs from it in the last bit at times."""
    n = r.shape[-1]
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    logs = [math.log(x) for x in diag[..., :-1].ravel().tolist()]
    i, j = np.triu_indices(n, 1)  # row-major
    return np.concatenate(
        [np.reshape(logs, diag.shape[:-1] + (n - 1,)), r[..., i, j] / diag[..., i]],
        axis=-1,
    )


def _require_rotation(q: np.ndarray):
    """det R > 0 and det g = 1 force det Q = +1; checked, not assumed: on an
    ill-conditioned g rounding loses it, which raises SingularInput."""
    if not np.all(np.abs(np.linalg.det(q) - 1.0) < 1e-6):
        raise SingularInput("QR of a unimodular matrix lost det Q = +1")


def iwasawa_sln(g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """SO(n)-left decomposition g = K . R via positive-diagonal QR, of every
    matrix of a (..., n, n) stack: the K stack and the chart stack.  The
    first non-unimodular matrix raises SingularInput."""
    require_unimodular(g)
    q, r = qr_positive(g)
    _require_rotation(q)
    return q, _chart_from_r(r)


def iwasawa_sln_ank(g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mirrored decomposition g = R . K with the triangular part on the left,
    of every matrix of a (..., n, n) stack: the K stack and the chart stack.

    Left translation by upper-triangular holonomy then acts on the chart by
    translation in the log-diagonal coordinates, which is what makes
    chart-difference cochains of an equivariant developing map well defined.
    The first non-unimodular matrix raises SingularInput.
    """
    require_unimodular(g)
    q_inv, r_inv = qr_positive(require_finite(np.linalg.inv(g), _inverse))
    k = np.swapaxes(q_inv, -1, -2)
    _require_rotation(k)
    return k, _chart_from_r(require_finite(np.linalg.inv(r_inv), _inverse))


def _inverse(_) -> str:
    return "an inverse in the AN-left chart"


# ---------------------------------------------------------------------------
# Target groups of a foliation


def _vectors(objs, length: int, what: str) -> np.ndarray:
    """JSON arrays of `length` finite numbers each, as one (N, length)
    float64 array; the first other one raises InputError.

    Booleans and numeric strings are not numbers here."""
    objs = list(objs)
    out = numbers_from_json(objs, 2)
    if out is None or out.shape[1:] != (length,) and objs:
        fits = [getattr(numbers_from_json(g, 1), "shape", 0) == (length,) for g in objs]
        raise InputError(
            f"{what} must be an array of {length} finite numbers, "
            f"got {objs[fits.index(False)]!r}"
        )
    return out.reshape(-1, length)


@dataclass(frozen=True)
class GA:
    """The affine group; elements are rows (a, b), edge values 2x2 matrices
    in its subalgebra of sl(2)."""

    tag: ClassVar[str] = "GA"
    n: ClassVar[int] = 2  # matrix size under the embedding
    dim: ClassVar[int] = 2  # dimension of the Lie algebra

    def mul(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Composition g o h of affine maps."""
        a, b = g[..., 0], g[..., 1]
        return np.stack([a * h[..., 0], a * h[..., 1] + b], axis=-1)

    def dist(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return np.abs(g - h).max(axis=-1)

    def matrix(self, g: np.ndarray) -> np.ndarray:
        """The unimodular embedding (1/sqrt(a)) [[a, b], [0, 1]] of every row;
        b/sqrt(a) past the float range is inf, which callers refuse."""
        s = np.sqrt(g[..., 0])
        with np.errstate(over="ignore"):
            top = np.stack([s, g[..., 1] / s], axis=-1)
        return np.stack([top, np.stack([np.zeros_like(s), 1.0 / s], axis=-1)], axis=-2)

    def coords(self, x: np.ndarray) -> np.ndarray:
        """(E, 2) coordinates of an (E, 2, 2) stack over diag(1, -1) and E_12."""
        return x[:, 0, :]

    def stack_from_json(self, objs) -> np.ndarray:
        """N JSON arrays [a, b]; the spec that holds them checks a > 0."""
        return _vectors(objs, 2, "GA element [a, b]")


@dataclass(frozen=True)
class SL:
    """SL(n, R); elements are n x n matrices, edge values an (E, n, n) stack."""

    n: int

    @property
    def tag(self) -> str:
        return "SL2" if self.n == 2 else "SLn"

    @property
    def dim(self) -> int:
        return self.n * self.n - 1

    def mul(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return g @ h

    def dist(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return np.abs(g - h).max(axis=(-2, -1))

    def matrix(self, g: np.ndarray) -> np.ndarray:
        return g

    def coords(self, x: np.ndarray) -> np.ndarray:
        """(E, n^2) coordinates of an (E, n, n) stack: all entries, row-major."""
        return x.reshape(len(x), -1)

    def stack_from_json(self, objs) -> np.ndarray:
        """N JSON matrices read in one pass; a malformed one raises its own
        error, the first one of another size an InputError."""
        stack, n = matrices_from_json(list(objs)), self.n
        # one (N, k, k) array, or a list of matrices that are not all k x k
        sizes = stack.shape[1:2] if isinstance(stack, np.ndarray) else map(len, stack)
        k = next((k for k in sizes if k != n), n)
        if k != n:
            raise InputError(f"SL({n}) element must be {n}x{n}, got {k}x{k}")
        return np.reshape(stack, (-1, n, n))


@dataclass(frozen=True)
class Rk:
    """The abelian group R^k; elements are k-vectors, and edge values an
    (E, k) array, one column per component."""

    k: int

    @property
    def tag(self) -> str:
        return f"R{self.k}"

    @property
    def dim(self) -> int:
        return self.k

    def mul(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return g + h

    def dist(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return np.abs(g - h).max(axis=-1)

    def stack_from_json(self, objs) -> np.ndarray:
        return _vectors(objs, self.k, f"{self.tag} element")


Group = Union[GA, SL, Rk]

_RK_TAG = re.compile(r"R([1-9][0-9]*)")


def parse_group(value, n: Optional[int] = None) -> Group:
    """The group named by the "group" value of a spec: "GA", "SL2", "SLn" or
    "R<k>" with k >= 1.

    n is the matrix size of the spec's cochain, when it has one: "SLn" takes
    its dimension from it, and "SL2" requires it to be 2.
    """
    if value == "GA":
        return GA()
    if value == "SL2":
        if n not in (None, 2):
            raise InputError(f"group 'SL2' needs 2x2 matrices, got {n}x{n}")
        return SL(2)
    if value == "SLn":
        if n is None:
            raise InputError("group 'SLn' takes its dimension from a 'cochain' field")
        return SL(n)
    match = _RK_TAG.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise InputError(
            f"unknown group {value!r}: expected 'GA', 'SL2', 'SLn' or 'R<k>', k >= 1"
        )
    return Rk(int(match.group(1)))
