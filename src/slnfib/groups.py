"""Group-level decompositions of SL(n, R).

* GA, the affine group x -> ax + b (a > 0), and its unimodular embedding
  g(a, b) = (1/sqrt(a)) [[a, b], [0, 1]].
* SL(2, R) = GA x S^1: g = embed(b) . rotation(theta), GA factor on the left.
* SL(n, R) = SO(n) x R^{n(n+1)/2 - 1} via positive-diagonal QR, with the
  mirrored AN-left variant used when left holonomy must act on the vector
  chart.
* The split of the vector chart into a leading block and a final R^2 factor.
* One type per target group of a foliation (GA, SL(n), R^k), acting on
  float arrays of elements: (..., 2) rows (a, b), (..., n, n) matrices or
  (..., k) vectors; and the parser of the JSON "group" value that names it.
The unimodularity check and the AN-left chart take whole (..., n, n) stacks.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple, Union

import numpy as np

from .errors import DimensionError, InputError, SingularInput
from .linalg import (
    EQ_TOL, FMatrix, matrices_from_json, numbers_from_json, qr_positive, require_finite
)


@dataclass(frozen=True)
class GAElement:
    """Affine map x -> a*x + b with a > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a > 0:
            raise InputError(f"GA element needs a > 0, got a={self.a}")


def ga_mul(g: GAElement, h: GAElement) -> GAElement:
    """Composition g o h of affine maps."""
    return GAElement(g.a * h.a, g.a * h.b + g.b)


def ga_inv(g: GAElement) -> GAElement:
    return GAElement(1.0 / g.a, -g.b / g.a)


def ga_embed(g: GAElement) -> FMatrix:
    """Unimodular embedding (1/sqrt(a)) [[a, b], [0, 1]] into SL(2, R)."""
    s = math.sqrt(g.a)
    return FMatrix([[s, g.b / s], [0.0, 1.0 / s]])


def ga_power(g: GAElement, t: float) -> GAElement:
    """One-parameter subgroup through g, evaluated at time t."""
    if abs(g.a - 1.0) < 1e-14:
        return GAElement(1.0, t * g.b)
    at = g.a ** t
    return GAElement(at, g.b * (at - 1.0) / (g.a - 1.0))


@dataclass(frozen=True)
class CircleAngle:
    """Angle with canonical representative in [0, 2*pi)."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", self.theta % (2.0 * math.pi))


def rotation(angle) -> FMatrix:
    """Rotation matrix [[c, -s], [s, c]]."""
    t = angle.theta if isinstance(angle, CircleAngle) else float(angle)
    c, s = math.cos(t), math.sin(t)
    return FMatrix([[c, -s], [s, c]])


def section(angle) -> FMatrix:
    """Section of the circle projection: the pure rotation at that angle."""
    return rotation(angle)


def require_unimodular(g: np.ndarray, name=lambda i: "matrix", error=SingularInput):
    """Raise error, naming it name(index), for the first matrix of the
    (..., n, n) array g in stack order with |det - 1| > 100 EQ_TOL (or NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        dets = np.ravel(np.linalg.det(g))
    bad = np.flatnonzero(~(np.abs(dets - 1.0) <= EQ_TOL * 100))
    if bad.size:
        n, det = g.shape[-1], dets[bad[0]]
        raise error(f"{name(bad[0])} has det {det:.12g}, not in SL({n})")


def iwasawa_sl2(g: FMatrix) -> Tuple[GAElement, CircleAngle]:
    """Unique factorization g = ga_embed(b) . rotation(theta).

    Writing the GA factor as [[p, q], [0, 1/p]] with p > 0, the bottom row of
    g is (sin(theta), cos(theta)) / p, which pins down both factors.
    """
    if g.n != 2:
        raise DimensionError("iwasawa_sl2 requires a 2x2 matrix")
    require_unimodular(g.arr)
    s_raw, c_raw = g[1, 0], g[1, 1]
    norm = math.hypot(s_raw, c_raw)
    p = 1.0 / norm
    theta = math.atan2(s_raw, c_raw)
    c, s = math.cos(theta), math.sin(theta)
    q = g[0, 0] * s + g[0, 1] * c
    return GAElement(p * p, q * p), CircleAngle(theta)


def circle_project(g: FMatrix) -> CircleAngle:
    """Projection SL(2, R) -> S^1 discarding the GA factor."""
    return iwasawa_sl2(g)[1]


def chart_length(n: int) -> int:
    return n * (n + 1) // 2 - 1


@dataclass(frozen=True)
class IwasawaFactors:
    """Orthogonal factor plus the vector chart of the AN part.

    chart layout: n-1 log-diagonal coordinates of R (last one implied by
    det R = 1), then the strictly-upper entries of R divided by their row
    diagonal, row-major.
    """

    k: FMatrix
    chart: Tuple[float, ...]

    @property
    def n(self) -> int:
        return self.k.n


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


def _r_from_chart(n: int, chart) -> FMatrix:
    logs = list(chart[: n - 1])
    diag = [math.exp(x) for x in logs]
    diag.append(1.0 / math.prod(diag))
    r = np.zeros((n, n))
    pos = n - 1
    for i in range(n):
        r[i, i] = diag[i]
        for j in range(i + 1, n):
            r[i, j] = chart[pos] * diag[i]
            pos += 1
    return FMatrix(r)


def _require_rotation(q: np.ndarray):
    """det R > 0 and det g = 1 force det Q = +1; checked, not assumed: on an
    ill-conditioned g rounding loses it, which raises SingularInput."""
    if not np.all(np.abs(np.linalg.det(q) - 1.0) < 1e-6):
        raise SingularInput("QR of a unimodular matrix lost det Q = +1")


def iwasawa_sln(g: FMatrix) -> IwasawaFactors:
    """SO(n)-left decomposition g = K . R via positive-diagonal QR."""
    require_unimodular(g.arr)
    q, r = qr_positive(g.arr)
    _require_rotation(q)
    return IwasawaFactors(FMatrix(q), tuple(_chart_from_r(r).tolist()))


def iwasawa_recompose(f: IwasawaFactors) -> FMatrix:
    if len(f.chart) != chart_length(f.n):
        raise DimensionError(
            f"chart length {len(f.chart)} != {chart_length(f.n)} for n={f.n}"
        )
    return f.k @ _r_from_chart(f.n, f.chart)


def iwasawa_sln_ank(g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mirrored decomposition g = R . K with the triangular part on the left,
    of every matrix of a (..., n, n) stack: the K stack and the chart stack.

    Left translation by upper-triangular holonomy then acts on the chart by
    translation in the log-diagonal coordinates, which is what makes
    chart-difference cochains of an equivariant developing map well defined.
    The first non-unimodular matrix raises SingularInput.
    """
    require_unimodular(g)
    q_inv, r_inv = qr_positive(require_finite(np.linalg.inv(g)))
    k = np.swapaxes(q_inv, -1, -2)
    _require_rotation(k)
    return k, _chart_from_r(require_finite(np.linalg.inv(r_inv)))


@dataclass(frozen=True)
class FactorSplit:
    """Designation of the last two chart coordinates as the R^2 factor."""

    n: int

    def __post_init__(self):
        if self.n < 2 or chart_length(self.n) < 2:
            raise DimensionError(f"no R^2 factor available for n={self.n}")

    @property
    def chart_len(self) -> int:
        return chart_length(self.n)

    @property
    def g1_coords(self) -> Tuple[int, ...]:
        return tuple(range(self.chart_len - 2))

    @property
    def g2_coords(self) -> Tuple[int, int]:
        return (self.chart_len - 2, self.chart_len - 1)


def factor_split(n: int) -> FactorSplit:
    """The R^2 factor of the SL(n) vector chart: its last two coordinates,
    r_(n-3, n-1)/r_(n-3, n-3) and r_(n-2, n-1)/r_(n-2, n-2) for n >= 3.

    Both are invariant under left translation by a diagonal matrix, so an
    SL(3) spec with diagonal holonomy projects to components that descend to
    the torus and no combination of them is a submersion: pipeline_sln
    correctly ends at "no submersive component combination found".
    """
    return FactorSplit(n)


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
    n: ClassVar[int] = 2  # matrix size under ga_embed
    dim: ClassVar[int] = 2  # dimension of the Lie algebra

    def mul(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Composition g o h, as ga_mul does it."""
        a, b = g[..., 0], g[..., 1]
        return np.stack([a * h[..., 0], a * h[..., 1] + b], axis=-1)

    def dist(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return np.abs(g - h).max(axis=-1)

    def matrix(self, g: np.ndarray) -> np.ndarray:
        """ga_embed of every row: (1/sqrt(a)) [[a, b], [0, 1]]."""
        s = np.sqrt(g[..., 0])
        top = np.stack([s, g[..., 1] / s], axis=-1)
        return np.stack([top, np.stack([np.zeros_like(s), 1.0 / s], axis=-1)], axis=-2)

    def coords(self, x: np.ndarray) -> np.ndarray:
        """(E, 2) coordinates of an (E, 2, 2) stack over diag(1, -1) and E_12."""
        return x[:, 0, :]

    def stack_from_json(self, objs) -> np.ndarray:
        out = _vectors(objs, 2, "GA element [a, b]")
        bad = np.flatnonzero(~(out[:, 0] > 0))
        if bad.size:
            raise InputError(f"GA element needs a > 0, got a={out[bad[0], 0]}")
        return out


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
        """N JSON matrices read in one pass; a malformed one raises its own error."""
        stack, n = matrices_from_json(list(objs)), self.n
        for g in stack:
            if len(g) != n:
                k = len(g)
                raise InputError(f"SL({n}) element must be {n}x{n}, got {k}x{k}")
        return np.reshape(stack, (-1, n, n))


@dataclass(frozen=True)
class Rk:
    """The abelian group R^k; elements are k-vectors, and the cochain is
    given as k scalar cochains."""

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
