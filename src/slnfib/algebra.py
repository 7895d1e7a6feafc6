"""Exact model of the traceless matrices sl(n, R).

Basis: the off-diagonal elementary matrices E_ij (i != j) together with the
diagonal traceless matrices Y_i = E_ii - E_11 for i = 2..n.  All coefficients
are exact rationals, so the classical commutator identities

    [E_ij, E_kl] = 0        if i != l and j != k
    [E_ij, E_jl] = E_il     if i != l
    [E_ij, E_ki] = -E_kj    if k != j
    [E_ij, E_ji] = E_ii - E_jj

are verified with zero tolerance rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .errors import DimensionError
from .linalg import RMatrix, rational_rank


@dataclass(frozen=True, order=True)
class OffDiag:
    """Index of the elementary matrix E_ij, i != j (1-based)."""

    i: int
    j: int


@dataclass(frozen=True, order=True)
class Diag:
    """Index of the diagonal basis matrix Y_i = E_ii - E_11, i >= 2."""

    i: int


BasisIndex = Union[OffDiag, Diag]


def basis_indices(n: int) -> List[BasisIndex]:
    """Ordered basis: all OffDiag(i, j) lexicographically, then Diag(2..n)."""
    idx: List[BasisIndex] = [
        OffDiag(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
    ]
    idx.extend(Diag(i) for i in range(2, n + 1))
    return idx


def _validate_index(idx: BasisIndex, n: int):
    if isinstance(idx, OffDiag):
        if not (1 <= idx.i <= n and 1 <= idx.j <= n) or idx.i == idx.j:
            raise DimensionError(f"invalid off-diagonal index {idx} for n={n}")
    elif isinstance(idx, Diag):
        if not 2 <= idx.i <= n:
            raise DimensionError(f"invalid diagonal index {idx} for n={n}")
    else:
        raise TypeError(f"not a basis index: {idx!r}")


def basis_matrix(idx: BasisIndex, n: int) -> RMatrix:
    """Matrix realization of a basis index."""
    _validate_index(idx, n)
    rows = [[Fraction(0)] * n for _ in range(n)]
    if isinstance(idx, OffDiag):
        rows[idx.i - 1][idx.j - 1] = Fraction(1)
    else:
        rows[0][0] = Fraction(-1)
        rows[idx.i - 1][idx.i - 1] += Fraction(1)
    return RMatrix(rows)


@dataclass(frozen=True)
class AlgebraElement:
    """Element of sl(n, R) as exact coefficients over the fixed basis."""

    n: int
    coeffs: Tuple[Tuple[BasisIndex, Fraction], ...]

    @classmethod
    def from_coeffs(cls, n: int, coeffs: Dict[BasisIndex, Fraction]) -> "AlgebraElement":
        items = []
        for idx in sorted(coeffs, key=_sort_key):
            _validate_index(idx, n)
            c = Fraction(coeffs[idx])
            if c != 0:
                items.append((idx, c))
        return cls(n, tuple(items))

    @classmethod
    def zero(cls, n: int) -> "AlgebraElement":
        return cls(n, ())

    @classmethod
    def basis(cls, idx: BasisIndex, n: int) -> "AlgebraElement":
        return cls.from_coeffs(n, {idx: Fraction(1)})

    @classmethod
    def from_matrix(cls, m: RMatrix) -> "AlgebraElement":
        """Decompose a traceless exact matrix over the basis.

        Off-diagonal entries are E_ij coefficients; diagonal entries a_ii for
        i >= 2 are the Y_i coefficients, with a_11 = -sum a_ii forced by the
        zero trace.
        """
        if m.trace() != 0:
            raise ValueError(f"matrix has trace {m.trace()}, not in sl(n)")
        n = m.n
        coeffs: Dict[BasisIndex, Fraction] = {}
        for i in range(n):
            for j in range(n):
                if i != j and m[i, j] != 0:
                    coeffs[OffDiag(i + 1, j + 1)] = m[i, j]
        for i in range(1, n):
            if m[i, i] != 0:
                coeffs[Diag(i + 1)] = m[i, i]
        return cls.from_coeffs(n, coeffs)

    def to_matrix(self) -> RMatrix:
        m = RMatrix.zeros(self.n)
        for idx, c in self.coeffs:
            m = m + basis_matrix(idx, self.n).scale(c)
        return m

    def coeff_vector(self) -> List[Fraction]:
        """Coefficients in the order of basis_indices(n)."""
        lookup = dict(self.coeffs)
        return [lookup.get(idx, Fraction(0)) for idx in basis_indices(self.n)]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.n != other.n:
            raise DimensionError("dimension mismatch")
        out = dict(self.coeffs)
        for idx, c in other.coeffs:
            out[idx] = out.get(idx, Fraction(0)) + c
        return AlgebraElement.from_coeffs(self.n, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def scale(self, c) -> "AlgebraElement":
        c = Fraction(c)
        return AlgebraElement.from_coeffs(
            self.n, {idx: c * v for idx, v in self.coeffs}
        )


def _sort_key(idx: BasisIndex):
    if isinstance(idx, OffDiag):
        return (0, idx.i, idx.j)
    return (1, idx.i, 0)


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket [x, y] = xy - yx, computed on matrix realizations."""
    if x.n != y.n:
        raise DimensionError("dimension mismatch")
    mx, my = x.to_matrix(), y.to_matrix()
    return AlgebraElement.from_matrix(mx @ my - my @ mx)


def dims(n: int) -> Tuple[int, int, int]:
    """(dim of diagonal part, dim of off-diagonal part, dim of sl(n))."""
    if n < 2:
        raise DimensionError(f"n must be >= 2, got {n}")
    dim_h = n - 1
    dim_off = n * n - n
    dim_total = n * n - 1
    assert dim_h + dim_off == dim_total
    return dim_h, dim_off, dim_total


@dataclass(frozen=True)
class StructureTable:
    """All brackets of basis pairs, stored exactly."""

    n: int
    table: Dict[Tuple[BasisIndex, BasisIndex], AlgebraElement]

    def get(self, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
        return self.table[(a, b)]

    def items(self):
        return self.table.items()


def build_structure_table(n: int) -> StructureTable:
    from .linalg import MAX_DIM

    if not 2 <= n <= MAX_DIM:
        raise DimensionError(f"n={n} outside 2..{MAX_DIM}")
    idxs = basis_indices(n)
    elems = {idx: AlgebraElement.basis(idx, n) for idx in idxs}
    entries = {}
    for a in idxs:
        for b in idxs:
            entries[(a, b)] = bracket(elems[a], elems[b])
    return StructureTable(n, entries)


def expected_offdiag_bracket(a: OffDiag, b: OffDiag, n: int) -> AlgebraElement:
    """The four classical identities for [E_ij, E_kl], stated directly.

    Independent of the commutator computation: this encodes
      0 (disjoint), E_il (j = k), -E_kj (i = l), and E_ii - E_jj (transpose
    pair), the last re-expressed over the Y basis.
    """
    i, j, k, l = a.i, a.j, b.i, b.j
    if i != l and j != k:
        return AlgebraElement.zero(n)
    if j == k and i != l:
        return AlgebraElement.basis(OffDiag(i, l), n)
    if i == l and k != j:
        return -AlgebraElement.basis(OffDiag(k, j), n)
    # k == j and l == i: [E_ij, E_ji] = E_ii - E_jj
    coeffs: Dict[BasisIndex, Fraction] = {}
    if i != 1:
        coeffs[Diag(i)] = Fraction(1)
    if j != 1:
        coeffs[Diag(j)] = coeffs.get(Diag(j), Fraction(0)) - 1
    if i == 1:
        coeffs = {Diag(j): Fraction(-1)}
    return AlgebraElement.from_coeffs(n, coeffs)


def basis_is_independent(n: int) -> bool:
    """Full-rank check of the basis matrices as flattened rational vectors."""
    vectors = []
    for idx in basis_indices(n):
        m = basis_matrix(idx, n)
        vectors.append([m[i, j] for i in range(n) for j in range(n)])
    return rational_rank(vectors) == n * n - 1


def _index_key(idx: BasisIndex) -> str:
    if isinstance(idx, OffDiag):
        return f"[{idx.i},{idx.j}]"
    return f"[{idx.i}]"


def structure_table_json(t: StructureTable) -> Dict[str, List[str]]:
    """Export as '[i,j]x[k,l]' -> coefficient list over the ordered basis."""
    out = {}
    for (a, b), val in t.items():
        key = f"{_index_key(a)}x{_index_key(b)}"
        out[key] = [str(c) for c in val.coeff_vector()]
    return out
