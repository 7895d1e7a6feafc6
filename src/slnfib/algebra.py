"""Exact model of the traceless matrices sl(n, R).

Basis: the off-diagonal elementary matrices E_ij (i != j) together with the
diagonal traceless matrices Y_i = E_ii - E_11 for i = 2..n.  All coefficients
are exact, so the classical commutator identities

    [E_ij, E_kl] = 0        if i != l and j != k
    [E_ij, E_jl] = E_il     if i != l
    [E_ij, E_ki] = -E_kj    if k != j
    [E_ij, E_ji] = E_ii - E_jj

are verified with zero tolerance rather than assumed.  An element holds its
Fraction coefficients over the basis; `bracket` is a sparse exact product over
the one or two nonzero entries of each basis element.  The structure table is
one (D, D, D) int64 array, D = n^2 - 1, from one stacked product of the
(D, n, n) basis matrices; int64 is exact there, as basis entries are in
{-1, 0, 1}, so every commutator entry lies in {-2, ..., 2} (n <= MAX_DIM).
`structure_table_json` writes the report text of the table straight from
that array.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple, Union

import numpy as np

from .errors import DimensionError
from .linalg import MAX_DIM, RMatrix


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


Entries = Dict[Tuple[int, int], Fraction]


def _index_entries(idx: BasisIndex) -> Dict[Tuple[int, int], int]:
    """Nonzero entries of a basis matrix, keyed (row, column) from 0:
    E_ij has one, Y_i = E_ii - E_11 has two."""
    if isinstance(idx, OffDiag):
        return {(idx.i - 1, idx.j - 1): 1}
    return {(0, 0): -1, (idx.i - 1, idx.i - 1): 1}


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
    def from_entries(cls, n: int, entries: Entries) -> "AlgebraElement":
        """Decompose a traceless matrix, given by its entries, over the basis.

        Off-diagonal entries are E_ij coefficients; diagonal entries a_ii for
        i >= 2 are the Y_i coefficients, with a_11 = -sum a_ii forced by the
        zero trace.
        """
        trace = sum(v for (i, j), v in entries.items() if i == j)
        if trace != 0:
            raise ValueError(f"matrix has trace {trace}, not in sl(n)")
        coeffs: Dict[BasisIndex, Fraction] = {}
        for (i, j), v in entries.items():
            if i != j:
                coeffs[OffDiag(i + 1, j + 1)] = v
            elif i:
                coeffs[Diag(i + 1)] = v
        return cls.from_coeffs(n, coeffs)

    @classmethod
    def from_matrix(cls, m: RMatrix) -> "AlgebraElement":
        """Decompose a traceless exact matrix over the basis."""
        n = m.n
        return cls.from_entries(
            n, {(i, j): m[i, j] for i in range(n) for j in range(n) if m[i, j]}
        )

    def entries(self) -> Entries:
        """Nonzero entries of the matrix realization, keyed (row, column) from 0."""
        out: Entries = {}
        for idx, c in self.coeffs:
            for ij, v in _index_entries(idx).items():
                out[ij] = out.get(ij, 0) + v * c
        return {ij: v for ij, v in out.items() if v}

    def to_matrix(self) -> RMatrix:
        rows = [[0] * self.n for _ in range(self.n)]
        for (i, j), v in self.entries().items():
            rows[i][j] = v
        return RMatrix(rows)

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
    """Lie bracket [x, y] = xy - yx, a sparse exact product of the matrix
    realizations: entry (i, j) of one factor meets only the entries (j, l) of
    row j of the other."""
    if x.n != y.n:
        raise DimensionError("dimension mismatch")
    ex, ey = x.entries(), y.entries()
    out: Entries = {}
    for left, right, sign in ((ex, ey, 1), (ey, ex, -1)):
        rows: Dict[int, List[Tuple[int, Fraction]]] = {}
        for (k, l), v in right.items():
            rows.setdefault(k, []).append((l, v))
        for (i, j), u in left.items():
            for l, v in rows.get(j, ()):
                out[(i, l)] = out.get((i, l), 0) + sign * u * v
    return AlgebraElement.from_entries(x.n, out)


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
    """All brackets of basis pairs: `coeffs[p, q]` holds [a, b] over the
    basis, for the p-th and q-th basis indices a and b, as one read-only
    (D, D, D) int64 array."""

    n: int
    coeffs: np.ndarray

    def get(self, a: BasisIndex, b: BasisIndex) -> AlgebraElement:
        idxs, pos = _basis(self.n)
        row = self.coeffs[pos[a], pos[b]]
        return AlgebraElement.from_coeffs(
            self.n, {idxs[p]: Fraction(int(row[p])) for p in np.flatnonzero(row)}
        )

    def items(self):
        """((a, b), [a, b]) for every basis pair, a-major in basis order."""
        idxs = _basis(self.n)[0]
        return (((a, b), self.get(a, b)) for a in idxs for b in idxs)


@functools.lru_cache(maxsize=MAX_DIM)
def _basis(n: int):
    """The basis indices as a tuple, and the position of each."""
    idxs = tuple(basis_indices(n))
    return idxs, {idx: p for p, idx in enumerate(idxs)}


def build_structure_table(n: int) -> StructureTable:
    """All D^2 commutators of the stacked basis matrices in one product,
    decomposed over the basis as `AlgebraElement.from_entries` does: the
    off-diagonal entries in basis order, then the diagonal entries 2..n."""
    if not 2 <= n <= MAX_DIM:
        raise DimensionError(f"n={n} outside 2..{MAX_DIM}")
    _, dim_off, dim = dims(n)
    i, j = np.nonzero(~np.eye(n, dtype=bool))  # E_ij in basis order
    d = np.arange(1, n)
    basis = np.zeros((dim, n, n), np.int64)
    basis[np.arange(dim_off), i, j] = 1
    basis[dim_off + d - 1, d, d] = 1
    basis[dim_off:, 0, 0] = -1
    prod = basis[:, None] @ basis[None]
    comm = prod - prod.swapaxes(0, 1)
    trace = np.trace(comm, axis1=2, axis2=3)
    if trace.any():
        raise ValueError(f"matrix has trace {trace[trace != 0][0]}, not in sl(n)")
    coeffs = comm.reshape(dim, dim, n * n).take(np.r_[i * n + j, d * (n + 1)], axis=-1)
    coeffs.flags.writeable = False
    return StructureTable(n, coeffs)


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


def expected_offdiag_table(n: int) -> np.ndarray:
    """`expected_offdiag_bracket` of every off-diagonal pair, as one
    (n^2 - n, n^2 - n, D) int64 coefficient array built from index
    arithmetic alone, never from a commutator."""
    _, dim_off, dim = dims(n)
    i, j = np.nonzero(~np.eye(n, dtype=bool))  # E_ij in basis order
    pos = np.zeros((n, n), np.intp)
    pos[i, j] = np.arange(dim_off)
    # position of Y_i; Y_1 = 0 goes to an extra column that is dropped
    ypos = np.r_[dim, dim_off + np.arange(n - 1)]
    out = np.zeros((dim_off, dim_off, dim + 1), np.int64)
    jk, il = j[:, None] == i, i[:, None] == j  # [E_ij, E_kl]: j = k, i = l
    a, b = np.nonzero(jk & ~il)
    out[a, b, pos[i[a], j[b]]] = 1  # E_il
    a, b = np.nonzero(il & ~jk)
    out[a, b, pos[i[b], j[a]]] = -1  # -E_kj
    a, b = np.nonzero(jk & il)
    out[a, b, ypos[i[a]]], out[a, b, ypos[j[a]]] = 1, -1  # E_ii - E_jj
    return out[..., :dim]


def _index_key(idx: BasisIndex) -> str:
    if isinstance(idx, OffDiag):
        return f"[{idx.i},{idx.j}]"
    return f"[{idx.i}]"


def structure_table_json(t: StructureTable, indent: str = "") -> str:
    """The export '[i,j]x[k,l]' -> coefficient strings over the ordered basis,
    as the text json.dumps(..., indent=2, sort_keys=True) writes for it, with
    its closing brace at `indent`.

    A row is its key's head and one cell per coefficient: the quoted value
    and its separator, or, last in the row, the row's closing bracket.  Every
    cell starts as the zero cell; the nonzero ones are scattered in from one
    object array over the distinct nonzero values, for any int64 table.  The
    text is one join of the rows in key order."""
    keys = [_index_key(idx) for idx in basis_indices(t.n)]
    names = [f"{a}x{b}" for a, b in itertools.product(keys, repeat=2)]
    order = sorted(range(len(names)), key=names.__getitem__)
    place = np.empty(len(names), np.intp)  # the place of each row in key order
    place[order] = np.arange(len(names))
    flat = t.coeffs.reshape(len(names), len(keys))
    row, col = np.nonzero(flat)
    values, code = np.unique(flat[row, col], return_inverse=True)
    inner, leaf = indent + "  ", indent + "    "
    texts = [f'"{v}"' for v in [0] + values.tolist()]
    cell = np.array(
        [[v + ",\n" + leaf for v in texts], [v + "\n" + inner + "]" for v in texts]],
        object,
    )
    parts = np.empty((len(names), len(keys) + 1), object)
    parts[:, 0] = [f',\n{inner}"{names[r]}": [\n{leaf}' for r in order]
    parts[0, 0] = parts[0, 0][1:]
    parts[:, 1:-1], parts[:, -1] = cell[:, 0]
    parts[place[row], col + 1] = cell[(col == len(keys) - 1).astype(np.intp), code + 1]
    return "{" + "".join(parts.ravel().tolist()) + "\n" + indent + "}"
