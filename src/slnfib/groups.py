"""Group-level decompositions of SL(n, R).

* GA, the affine group x -> ax + b (a > 0), and its unimodular embedding
  g(a, b) = (1/sqrt(a)) [[a, b], [0, 1]].
* SL(2, R) = GA x S^1: g = embed(b) . rotation(theta), GA factor on the left.
* SL(n, R) = SO(n) x R^{n(n+1)/2 - 1} via positive-diagonal QR, with the
  mirrored AN-left variant used when left holonomy must act on the vector
  chart.
* The split of the vector chart into a leading block and a final R^2 factor.
* One type per target group of a foliation (GA, SL(n), R^k) and the parser
  of the JSON "group" value that names it.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple, Union

import numpy as np

from .errors import DimensionError, InputError, SingularInput
from .linalg import EQ_TOL, FMatrix, matrix_from_json, matrix_to_json, qr_positive


@dataclass(frozen=True)
class GAElement:
    """Affine map x -> a*x + b with a > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a > 0:
            raise InputError(f"GA element needs a > 0, got a={self.a}")


GA_IDENTITY = GAElement(1.0, 0.0)


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


def _require_unimodular(g: FMatrix):
    d = g.det()
    if abs(d - 1.0) > EQ_TOL * 100:
        raise SingularInput(f"matrix has det {d:.12f}, not in SL(n)")


def iwasawa_sl2(g: FMatrix) -> Tuple[GAElement, CircleAngle]:
    """Unique factorization g = ga_embed(b) . rotation(theta).

    Writing the GA factor as [[p, q], [0, 1/p]] with p > 0, the bottom row of
    g is (sin(theta), cos(theta)) / p, which pins down both factors.
    """
    if g.n != 2:
        raise DimensionError("iwasawa_sl2 requires a 2x2 matrix")
    _require_unimodular(g)
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


def _chart_from_r(r: FMatrix) -> Tuple[float, ...]:
    n = r.n
    chart: List[float] = [math.log(r[i, i]) for i in range(n - 1)]
    for i in range(n):
        for j in range(i + 1, n):
            chart.append(r[i, j] / r[i, i])
    return tuple(chart)


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


def iwasawa_sln(g: FMatrix) -> IwasawaFactors:
    """SO(n)-left decomposition g = K . R via positive-diagonal QR."""
    _require_unimodular(g)
    q, r = qr_positive(g)
    # det R > 0 and det g = 1 force det Q = +1; asserted, not assumed.
    assert abs(q.det() - 1.0) < 1e-6, "QR of a unimodular matrix lost det Q = +1"
    return IwasawaFactors(q, _chart_from_r(r))


def iwasawa_recompose(f: IwasawaFactors) -> FMatrix:
    if len(f.chart) != chart_length(f.n):
        raise DimensionError(
            f"chart length {len(f.chart)} != {chart_length(f.n)} for n={f.n}"
        )
    return f.k @ _r_from_chart(f.n, f.chart)


def iwasawa_sln_ank(g: FMatrix) -> IwasawaFactors:
    """Mirrored decomposition g = R . K with the triangular part on the left.

    Left translation by upper-triangular holonomy then acts on the chart by
    translation in the log-diagonal coordinates, which is what makes
    chart-difference cochains of an equivariant developing map well defined.
    """
    _require_unimodular(g)
    q_inv, r_inv = qr_positive(g.inv())
    r = r_inv.inv()
    k = q_inv.transpose()
    assert abs(k.det() - 1.0) < 1e-6
    return IwasawaFactors(k, _chart_from_r(r))


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
    return FactorSplit(n)


# ---------------------------------------------------------------------------
# Target groups of a foliation


def _floats(obj, length: int, what: str) -> Tuple[float, ...]:
    """A JSON array of `length` finite numbers, as floats.

    Booleans and numeric strings are not numbers here."""
    if isinstance(obj, list) and len(obj) == length and not any(
        isinstance(x, (bool, str)) for x in obj
    ):
        try:
            out = tuple(float(x) for x in obj)
            if all(map(math.isfinite, out)):
                return out
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(
        f"{what} must be an array of {length} finite numbers, got {obj!r}"
    )


@dataclass(frozen=True)
class GA:
    """The affine group; elements are GAElement, edge values 2x2 matrices
    in its subalgebra of sl(2)."""

    tag: ClassVar[str] = "GA"
    n: ClassVar[int] = 2  # matrix size under ga_embed
    dim: ClassVar[int] = 2  # dimension of the Lie algebra

    def identity(self) -> GAElement:
        return GA_IDENTITY

    def mul(self, g: GAElement, h: GAElement) -> GAElement:
        return ga_mul(g, h)

    def inv(self, g: GAElement) -> GAElement:
        return ga_inv(g)

    def dist(self, g: GAElement, h: GAElement) -> float:
        return max(abs(g.a - h.a), abs(g.b - h.b))

    def matrix(self, g: GAElement) -> FMatrix:
        return ga_embed(g)

    def coords(self, x: FMatrix) -> List[float]:
        """Coordinates over diag(1, -1) and the strictly upper unit matrix."""
        return [x[0, 0], x[0, 1]]

    def from_json(self, obj) -> GAElement:
        return GAElement(*_floats(obj, 2, "GA element [a, b]"))

    def to_json(self, g: GAElement):
        return [g.a, g.b]


@dataclass(frozen=True)
class SL:
    """SL(n, R); elements and edge values are n x n FMatrix."""

    n: int

    @property
    def tag(self) -> str:
        return "SL2" if self.n == 2 else "SLn"

    @property
    def dim(self) -> int:
        return self.n * self.n - 1

    def identity(self) -> FMatrix:
        return FMatrix.identity(self.n)

    def mul(self, g: FMatrix, h: FMatrix) -> FMatrix:
        return g @ h

    def inv(self, g: FMatrix) -> FMatrix:
        return g.inv()

    def dist(self, g: FMatrix, h: FMatrix) -> float:
        return g.dist(h)

    def matrix(self, g: FMatrix) -> FMatrix:
        return g

    def coords(self, x: FMatrix) -> List[float]:
        """All n^2 entries, row-major."""
        return [x[i, j] for i in range(self.n) for j in range(self.n)]

    def from_json(self, obj) -> FMatrix:
        g = matrix_from_json(obj).to_float()
        if g.n != self.n:
            n = self.n
            raise InputError(f"SL({n}) element must be {n}x{n}, got {g.n}x{g.n}")
        return g

    def to_json(self, g: FMatrix):
        return matrix_to_json(g)


@dataclass(frozen=True)
class Rk:
    """The abelian group R^k; elements are float k-tuples, and the cochain
    is given as k scalar cochains."""

    k: int

    @property
    def tag(self) -> str:
        return f"R{self.k}"

    @property
    def dim(self) -> int:
        return self.k

    def identity(self) -> Tuple[float, ...]:
        return (0.0,) * self.k

    def mul(self, g: Tuple[float, ...], h: Tuple[float, ...]) -> Tuple[float, ...]:
        return tuple(x + y for x, y in zip(g, h))

    def inv(self, g: Tuple[float, ...]) -> Tuple[float, ...]:
        return tuple(-x for x in g)

    def dist(self, g: Tuple[float, ...], h: Tuple[float, ...]) -> float:
        return max(abs(x - y) for x, y in zip(g, h))

    def from_json(self, obj) -> Tuple[float, ...]:
        return _floats(obj, self.k, f"{self.tag} element")

    def to_json(self, g: Tuple[float, ...]):
        return list(g)


Group = Union[GA, SL, Rk]
GroupElement = Union[GAElement, FMatrix, Tuple[float, ...]]

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
