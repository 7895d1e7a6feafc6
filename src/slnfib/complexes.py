"""Triangulated tori, edge-indexed 1-cochains, coboundary, periods, flatness.

Complexes are built from the standard monotone-diagonal triangulation of the
unit cube grid: each grid cell is cut along increasing 0/1-vector chains, so
for d = 2 every square splits along the (+1, +1) diagonal.  Every complex is
such a d-torus on an m^d grid and carries its covering data: the deck group
Z^d acts on integer grid coordinates by shifts of m.

Each edge is stored once, as a row of the (E, 2) int array complex.edges,
together with its covering lift (z, z + e), e in {0,1}^d, a row of the
(E, 2, d) int array complex.lifts; vertex coordinates are one (V, d) int
array, and no per-edge or per-vertex Python list is kept.  The lift,
vertex-coordinate and incidence tables are built on first read.  A scalar
1-cochain is one read-only float64 array in edge order, and its coboundary
and closedness are array expressions over the complex's int incidence
arrays.  H_1 of the torus has the basis of the d axis loops through vertex
0, and the period on axis loop k is read off m edge indices by arithmetic;
the coordinate cochains dx_k are the dual basis.  A Lie cochain is a plain
float64 array in that order: (E, n, n) for a matrix group, whose triangle
holonomies come from one stacked exponential, or (E, k) for R^k, one column
per component, whose coboundary is one (T, k) array.  The
complex maps oriented edges (u, v), one pair or arrays of them, to edge
indices and signs, +1 if the edge is stored as (u, v) and -1 if it is
stored as (v, u).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DimensionError, InputError
from .linalg import matrix_exp, require_finite

WINDOW_COPIES = 3  # fundamental domains per axis in a developing-map window
MAX_VERTICES = 65536  # torus size cap: T^2 up to m = 256, T^3 up to m = 40


@dataclass(frozen=True)
class TorusCovering:
    """Z^d deck action on the integer grid covering an m^d torus."""

    d: int
    m: int

    def base_index(self, coords: Sequence[int]) -> int:
        idx = 0
        for c in reversed(coords):
            idx = idx * self.m + (c % self.m)
        return idx

    def window(self) -> np.ndarray:
        """[0, WINDOW_COPIES*m)^d as an (N, d) int array, first coordinate fastest."""
        side = (WINDOW_COPIES * self.m,) * self.d
        return np.indices(side).reshape(self.d, -1).T[:, ::-1].copy()


class SimplicialComplex:
    """Oriented 1- and 2-skeleton of a torus, with the edges of each top
    simplex.

    Built from the covering alone, as int64 arrays.  Vertex v has grid
    coordinates vertex_coords[v] (a V x d array; v = covering.base_index of
    them); edge u * (2^d - 1) + j is (u, u + e_j) for the j-th nonzero e_j
    in {0,1}^d (_monotone_vectors order), with covering lift lifts[i] (an
    E x 2 x d array, the one lift table) and base edge edges[i] (E x 2).
    A grid cell is cut along increasing chains 0 < a < b (< c) of such
    vectors, so each simplex is (z, z + a, z + b, ...) and each of its
    edges is stored in the direction it is walked.

    The incidence is held once: triangles (T x 3) lists vertices;
    triangle_edges (T x 3) gives the edge indices of the slots (a, b),
    (b, c) and (a, c) of each triangle (a, b, c), each edge stored the way
    its slot runs; top_edges gives the edge indices of each top simplex
    (edge, triangle or tetrahedron); incidence (V x 2(2^d - 1)) gives the
    edges at each vertex in ascending order.  Row z * chains + chain of a
    table holds chain `chain` of the cell at base vertex z, and each table
    is one broadcast sum of per-axis id arithmetic for z + a, written once.
    edges, triangles, triangle_edges and top_edges are built with the
    complex; vertex_coords, lifts and incidence, which only the foliation
    code reads, are built on first read, so a tischler run builds none.
    """

    def __init__(self, covering: TorusCovering):
        d = covering.d
        self.covering = covering
        self.n_vertices = covering.m ** d
        vecs = _monotone_vectors(d)
        vec_index = {e: j for j, e in enumerate(vecs)}
        width, zero = len(vecs), (0,) * d

        def edges_of(chains, pairs):  # the edge (z + ch[s], z + ch[t]) per pair
            tails = [ch[s] for ch in chains for s, _ in pairs]
            steps = [
                vec_index[tuple(y - x for x, y in zip(ch[s], ch[t]))]
                for ch in chains
                for s, t in pairs
            ]
            return self._per_cell(tails, len(pairs), width, steps)

        def below(a, b):
            return a != b and all(x <= y for x, y in zip(a, b))

        edge_chains = [(zero, e) for e in vecs]
        self.edges = self._per_cell(edge_chains, 2)
        tri_chains = [(zero, a, b) for a in vecs for b in vecs if below(a, b)]
        tet_chains = [ch + (c,) for ch in tri_chains for c in vecs if below(ch[2], c)]
        top_chains = (None, edge_chains, tri_chains, tet_chains)[d]
        self.triangles = self._per_cell(tri_chains, 3)
        self.triangle_edges = edges_of(tri_chains, ((0, 1), (1, 2), (0, 2)))
        pairs = list(itertools.combinations(range(d + 1), 2))
        self.top_edges = edges_of(top_chains, pairs)

    def _per_cell(self, a, cols, scale=1, offset=0):
        """The table of row z * chains + chain: (z + a) * scale + offset for
        the shift a of each column, summed axis by axis into one C-ordered
        grid[c_(d-1), ..., c_0, column]."""
        d, m = self.covering.d, self.covering.m
        a = np.array(a, dtype=np.int64).reshape(-1, d)
        table = np.array(offset, dtype=np.int64)
        for k in range(d):
            ids = (np.arange(m)[:, None] + a[:, k]) % m * (m ** k * scale)
            table = table + ids.reshape((m,) + (1,) * k + (-1,))
        return table.reshape(-1, cols)

    @functools.cached_property
    def vertex_coords(self) -> np.ndarray:
        d, m = self.covering.d, self.covering.m
        return np.arange(self.n_vertices)[:, None] // m ** np.arange(d) % m

    @functools.cached_property
    def lifts(self) -> np.ndarray:
        d = self.covering.d
        steps = np.array([[(0,) * d, e] for e in _monotone_vectors(d)])
        return (self.vertex_coords[:, None, None] + steps).reshape(-1, 2, d)

    @functools.cached_property
    def incidence(self) -> np.ndarray:
        # the edges at z: (z, z + e_j) and (z - e_j, z), in ascending order
        vecs = _monotone_vectors(self.covering.d)
        width, zero = len(vecs), (0,) * self.covering.d
        back = [[-x for x in e] for e in vecs]
        shifts, steps = [zero] * width + back, list(range(width)) * 2
        ends = self._per_cell(shifts, 2 * width, width, steps)
        return np.sort(ends, axis=1)

    def orient(self, u, v):
        """(index, sign) of the edge from u to v, elementwise for arrays of
        vertices: (u, v) is edge u * (2^d - 1) + j if coords[v] - coords[u]
        = e_j mod m, and (v, u) is that edge with sign -1.  The first pair
        that is no edge raises InputError.  Coordinate k of a vertex is its
        id // m^k % m, and e_j has bit d-1-k of j + 1 on axis k."""
        u, v = _vertex_array(u), _vertex_array(v)
        inside = (0 <= u) & (u < self.n_vertices) & (0 <= v) & (v < self.n_vertices)
        u_at, v_at = (np.where(inside, x, 0).astype(np.int64) for x in (u, v))
        d, m = self.covering.d, self.covering.m
        ahead = back = 0  # j + 1 of coords[v] - coords[u] and of its negative
        off = off_back = False  # an axis step of either off {0, 1}
        at_u, at_v = u_at, v_at
        for k in range(d):
            step = (at_v - at_u) % m
            ahead, back = 2 * ahead + step, 2 * back + (m - step) % m
            off, off_back = off | (step > 1), off_back | (step != 0) & (step != m - 1)
            at_u, at_v = at_u // m, at_v // m
        forward = ~off & (ahead > 0)
        bad = np.flatnonzero(~inside | ~forward & (off_back | (back == 0)))
        if bad.size:
            raise InputError(f"no edge ({u.flat[bad[0]]},{v.flat[bad[0]]})")
        width = 2 ** d - 1
        index = np.where(forward, u_at * width + ahead, v_at * width + back) - 1
        # [()] gives scalars for one pair and the arrays themselves otherwise
        return index[()], np.where(forward, 1, -1)[()]

    def indexed(self, u, v, values, base) -> np.ndarray:
        """A float64 copy of the edge-indexed array base, overwritten by
        values[k] on the oriented edge (u[k], v[k]) (negated when keyed
        against the stored orientation), all resolved by one orient call; of
        two keys on one edge the later wins: the position of each edge's
        last key is one np.maximum.at over the edges, with no sort."""
        out = np.array(base, dtype=np.float64)
        if len(values):
            index, sign = self.orient(u, v)
            # the last key on each edge, explicitly: a fancy assignment
            # does not promise which of two writes to one slot lands
            last = np.full(len(out), -1)
            np.maximum.at(last, index, np.arange(len(index)))
            edge = np.flatnonzero(last >= 0)
            last = last[edge]
            values = np.asarray(values, dtype=np.float64)[last]
            out[edge] = values * sign[last].reshape((-1,) + (1,) * (values.ndim - 1))
        return out


def _monotone_vectors(d: int) -> List[Tuple[int, ...]]:
    return [v for v in itertools.product((0, 1), repeat=d) if any(v)]


def _vertex_array(x):
    """x as an int array, or as an object array of Python ints if a value
    does not fit int64 (a JSON key can name any integer vertex)."""
    a = np.asarray(x)
    return a if a.dtype.kind in "iu" else np.array(x, dtype=object)


def torus_complex(d: int, m: int) -> SimplicialComplex:
    """Standard triangulated flat d-torus on an m^d grid, d in {1, 2, 3},
    with at most MAX_VERTICES vertices."""
    if d not in (1, 2, 3):
        raise DimensionError(f"torus dimension must be 1, 2 or 3, got {d}")
    if m < 3:
        raise InputError(f"need m >= 3 subdivisions to avoid degenerate edges, got {m}")
    if m ** d > MAX_VERTICES:
        raise InputError(
            f"torus with m={m}, d={d} has {m}^{d} vertices, over the cap {MAX_VERTICES}"
        )
    return SimplicialComplex(TorusCovering(d, m))


class ScalarCochain1:
    """Real values, one per edge in complex.edges order, as a read-only
    float64 array."""

    def __init__(self, complex: SimplicialComplex, values):
        arr = np.array(values, dtype=np.float64)
        if arr.shape != (len(complex.edges),):
            raise InputError(
                f"cochain needs {len(complex.edges)} edge values, got shape {arr.shape}"
            )
        arr.flags.writeable = False
        self.complex = complex
        self.values = arr

    def __call__(self, u: int, v: int) -> float:
        i, sign = self.complex.orient(u, v)
        return sign * self.values[i]

    def __add__(self, other: "ScalarCochain1") -> "ScalarCochain1":
        return ScalarCochain1(self.complex, self.values + other.values)

    def scale(self, c: float) -> "ScalarCochain1":
        return ScalarCochain1(self.complex, c * self.values)


def coordinate_cochain(complex: SimplicialComplex, axis: int) -> ScalarCochain1:
    """dx_axis on a torus complex: e_j[axis] / m on edge (u, u + e_j), for all u.

    Closed, with period 1 on its own axis loop and 0 on the others: the
    coordinate cochains are the basis dual to the axis loops.
    """
    steps = np.array(_monotone_vectors(complex.covering.d))[:, axis]
    return ScalarCochain1(complex, np.tile(steps / complex.covering.m, complex.n_vertices))


def coboundary(complex: SimplicialComplex, values: np.ndarray) -> np.ndarray:
    """Per-triangle values (dw)(u,v,w) = (w(u,v) + w(v,w)) - w(u,w) of the
    (E,) values of a scalar cochain, or of each column of an (E, k) R^k
    cochain: (T,) or (T, k)."""
    along = values[complex.triangle_edges]
    with np.errstate(over="ignore", invalid="ignore"):
        return (along[:, 0] + along[:, 1]) - along[:, 2]


def max_coboundary(complex: SimplicialComplex, values: np.ndarray) -> float:
    """Closedness measure: the largest |dw| over triangles and columns (0.0
    without any), NaN if any |dw| is NaN."""
    return float(np.max(np.abs(coboundary(complex, values)), initial=0.0))


def period(w: ScalarCochain1, axis: int) -> float:
    """The period of w on the axis loop through vertex 0: the sum of w over
    its edges (i e_axis, (i + 1) e_axis), i = 0..m-1, added one at a time in
    loop order.  Edge (u, u + e_axis) is u * (2^d - 1) + 2^(d-1-axis) - 1,
    stored forward, and u = i m^axis."""
    d, m = w.complex.covering.d, w.complex.covering.m
    index = np.arange(m) * m ** axis * (2 ** d - 1) + (2 ** (d - 1 - axis) - 1)
    total = 0.0
    for x in w.values[index].tolist():
        total += x
    return total


def holonomy_residual(complex: SimplicialComplex, values: np.ndarray) -> np.ndarray:
    """Per triangle (u, v, x) of complex: exp(w(uv)) exp(w(vx)) exp(w(xu)) - I
    for the (E, n, n) edge values w, as a (T, n, n) array from one stacked
    exponential, taken once per distinct (edge, sign) among the 3T edge
    values: on a closed surface each such pair borders two triangles.

    Independent flatness oracle: exact discrete-connection flatness makes the
    triangle holonomy the identity regardless of any Maurer-Cartan
    discretization convention.  A non-finite residual, as from an
    exponential that overflows, raises InputError naming its first triangle.
    """
    index = complex.triangle_edges
    # w(uv), w(vx) and w(xu) = -w(ux) of every triangle (slot edges are
    # stored as they run), gathered from the distinct signed exponentials
    pairs, at = np.unique(2 * index + [1, 1, 0], return_inverse=True)
    signed = values[pairs // 2] * np.where(pairs % 2, 1.0, -1.0)[:, None, None]
    a, b, c = np.moveaxis(matrix_exp(signed)[at.reshape(index.shape)], 1, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = a @ b @ c - np.eye(values.shape[-1])

    def triangle(t):
        return "holonomy residual of triangle {} (vertices {}, {}, {})".format(
            t, *complex.triangles[t]
        )

    return require_finite(residual, triangle)
