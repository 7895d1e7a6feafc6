"""Triangulated tori, edge-indexed 1-cochains, coboundary, periods, flatness.

Complexes are built from the standard monotone-diagonal triangulation of the
unit cube grid: each grid cell is cut along increasing 0/1-vector chains, so
for d = 2 every square splits along the (+1, +1) diagonal.  Every complex is
such a d-torus on an m^d grid and carries its covering data: the deck group
Z^d acts on integer grid coordinates by shifts of m.

Each edge is stored once, in the orientation of complex.edges, together with
its covering lift (z, z + e), e in {0,1}^d, and a 1-cochain is one list of
values in that order.  The complex maps an oriented edge (u, v) to its index
and a sign, +1 if it is stored as (u, v) and -1 if it is stored as (v, u);
SimplicialComplex is the only place that negates a value for the
orientation.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

from .errors import DimensionError, InputError
from .linalg import FMatrix, matrix_exp

Edge = Tuple[int, int]
Value = Union[float, Fraction]

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

    def deck(self, coords: Sequence[int], gen: int) -> Tuple[int, ...]:
        out = list(coords)
        out[gen] += self.m
        return tuple(out)

    def window(self) -> List[Tuple[int, ...]]:
        """All covering vertices in [0, WINDOW_COPIES*m)^d."""
        rng = range(WINDOW_COPIES * self.m)
        return [tuple(reversed(c)) for c in itertools.product(rng, repeat=self.d)]


def _signed(value, sign: int):
    return value if sign > 0 else -value


class SimplicialComplex:
    """Oriented 1- and 2-skeleton (plus tetrahedra for d = 3) of a torus.

    Built by torus_complex from the covering lift (z_u, z_v) of each edge,
    with z_v = z_u + e for a nonzero e in {0,1}^d: edge_lifts keeps the
    lifts, and edges the base edges (u, v) in the same order.
    triangle_edges holds orient(a, b), orient(b, c) and orient(a, c) for
    each triangle (a, b, c), edge_triangles the triangles on each edge, and
    top_edges the edge indices of each top simplex.
    """

    def __init__(
        self,
        covering: TorusCovering,
        vertex_coords: List[Tuple[int, ...]],
        edge_lifts: List[Tuple[Tuple[int, ...], Tuple[int, ...]]],
        triangles: List[Tuple[int, int, int]],
        tetrahedra: List[Tuple[int, int, int, int]],
    ):
        self.covering = covering
        self.vertex_coords = vertex_coords
        self.n_vertices = len(vertex_coords)
        self.edge_lifts = edge_lifts
        self.edges: List[Edge] = [
            (covering.base_index(zu), covering.base_index(zv)) for zu, zv in edge_lifts
        ]
        self.triangles = triangles
        self.tetrahedra = tetrahedra

        self._orient: Dict[Edge, Tuple[int, int]] = {}
        self._incident: List[List[int]] = [[] for _ in vertex_coords]
        for i, (u, v) in enumerate(self.edges):
            self._orient[u, v] = (i, 1)
            self._orient[v, u] = (i, -1)
            self._incident[u].append(i)
            self._incident[v].append(i)

        self.triangle_edges = [
            (self._orient[a, b], self._orient[b, c], self._orient[a, c])
            for a, b, c in triangles
        ]
        self.edge_triangles: List[List[int]] = [[] for _ in self.edges]
        for t, incidence in enumerate(self.triangle_edges):
            for i, _ in incidence:
                self.edge_triangles[i].append(t)
        self.top_edges = [
            tuple(self._orient[e][0] for e in itertools.combinations(s, 2))
            for s in self.top_simplices
        ]

    def orient(self, u: int, v: int) -> Tuple[int, int]:
        """(index, sign) of the edge from u to v."""
        try:
            return self._orient[u, v]
        except KeyError:
            raise InputError(f"no edge ({u},{v})") from None

    def value(self, values: Sequence, u: int, v: int):
        """The value of an edge-indexed list on the oriented edge (u, v)."""
        i, sign = self.orient(u, v)
        return _signed(values[i], sign)

    def indexed(self, values: Dict[Edge, object], base: Sequence) -> list:
        """A copy of the edge-indexed list base, overwritten by values keyed
        by oriented edges."""
        out = list(base)
        for (u, v), val in values.items():
            i, sign = self.orient(u, v)
            out[i] = _signed(val, sign)
        return out

    def triangle_values(self, values: Sequence) -> List[tuple]:
        """Per triangle (a, b, c): the values on (a, b), (b, c) and (a, c)."""
        return [
            tuple(_signed(values[i], sign) for i, sign in incidence)
            for incidence in self.triangle_edges
        ]

    def incident_edges(self, v: int) -> List[int]:
        """Indices of the edges at vertex v."""
        return self._incident[v]

    def triangles_of_edge(self, u: int, v: int) -> List[int]:
        return self.edge_triangles[self.orient(u, v)[0]]

    @property
    def top_simplices(self):
        """Tetrahedra, else triangles, else edges (for a 1-complex)."""
        return self.tetrahedra or self.triangles or self.edges


def _monotone_vectors(d: int) -> List[Tuple[int, ...]]:
    return [v for v in itertools.product((0, 1), repeat=d) if any(v)]


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
    cov = TorusCovering(d, m)
    coords = [None] * (m ** d)
    for c in itertools.product(range(m), repeat=d):
        c = tuple(reversed(c))
        coords[cov.base_index(c)] = c

    def add(z, e):
        return tuple(z_i + e_i for z_i, e_i in zip(z, e))

    vecs = _monotone_vectors(d)
    lifts = [(z, add(z, e)) for z in coords for e in vecs]

    triangles = []
    tets = []
    for z in coords:
        for a in vecs:
            for b in vecs:
                if all(x <= y for x, y in zip(a, b)) and a != b:
                    triangles.append(
                        (
                            cov.base_index(z),
                            cov.base_index(add(z, a)),
                            cov.base_index(add(z, b)),
                        )
                    )
                    if d == 3:
                        for c in vecs:
                            if all(x <= y for x, y in zip(b, c)) and b != c:
                                tets.append(
                                    (
                                        cov.base_index(z),
                                        cov.base_index(add(z, a)),
                                        cov.base_index(add(z, b)),
                                        cov.base_index(add(z, c)),
                                    )
                                )
    return SimplicialComplex(cov, coords, lifts, triangles, tets)


@dataclass
class Cycle:
    """Closed chain of oriented edges, head-to-tail."""

    edges: List[Edge]

    def __post_init__(self):
        if not self.edges:
            raise InputError("empty cycle")
        for (u1, v1), (u2, v2) in zip(self.edges, self.edges[1:]):
            if v1 != u2:
                raise InputError(f"cycle breaks between ({u1},{v1}) and ({u2},{v2})")
        if self.edges[-1][1] != self.edges[0][0]:
            raise InputError("cycle is not closed")

    def reversed(self) -> "Cycle":
        return Cycle([(v, u) for u, v in reversed(self.edges)])


def homology_generators(complex: SimplicialComplex) -> List[Cycle]:
    """One axis loop through the origin per torus factor."""
    cov = complex.covering
    gens = []
    for axis in range(cov.d):
        edges = []
        for i in range(cov.m):
            z = tuple(i if k == axis else 0 for k in range(cov.d))
            z_next = tuple((i + 1) if k == axis else 0 for k in range(cov.d))
            edges.append((cov.base_index(z), cov.base_index(z_next)))
        gens.append(Cycle(edges))
    return gens


class ScalarCochain1:
    """Real or exact-rational values, one per edge in complex.edges order."""

    def __init__(self, complex: SimplicialComplex, values: List[Value]):
        if len(values) != len(complex.edges):
            raise InputError(
                f"cochain needs {len(complex.edges)} edge values, got {len(values)}"
            )
        self.complex = complex
        self.values = values

    def __call__(self, u: int, v: int) -> Value:
        return self.complex.value(self.values, u, v)

    def __add__(self, other: "ScalarCochain1") -> "ScalarCochain1":
        return ScalarCochain1(
            self.complex, [a + b for a, b in zip(self.values, other.values)]
        )

    def scale(self, c) -> "ScalarCochain1":
        return ScalarCochain1(self.complex, [c * x for x in self.values])


def coordinate_cochain(complex: SimplicialComplex, axis: int) -> ScalarCochain1:
    """dx_axis on a torus complex: 1/m per unit step along the axis.

    Closed, with period 1 on the axis generator and 0 on the others; these are
    the stored harmonic duals of the torus homology basis.
    """
    m = complex.covering.m
    return ScalarCochain1(
        complex, [Fraction(zv[axis] - zu[axis], m) for zu, zv in complex.edge_lifts]
    )


def coboundary(w: ScalarCochain1) -> List[Value]:
    """Per-triangle values (dw)(u,v,w) = w(u,v) + w(v,w) - w(u,w)."""
    return [a + b - c for a, b, c in w.complex.triangle_values(w.values)]


def max_coboundary(w: ScalarCochain1) -> float:
    """Closedness measure: the largest |dw| over triangles (0.0 without any)."""
    return max((abs(float(x)) for x in coboundary(w)), default=0.0)


def period(w: ScalarCochain1, c: Cycle) -> Value:
    total = 0
    for u, v in c.edges:
        total = total + w(u, v)
    return total


class LieCochain1:
    """Traceless-matrix values, one per edge in complex.edges order.

    Values live in sl(n, R) as FMatrix entries of a single dimension n.
    """

    def __init__(self, complex: SimplicialComplex, values: List[FMatrix]):
        self.complex = complex
        dims = {v.n for v in values if v is not None}
        if len(dims) != 1:
            raise InputError(f"Lie cochain values must share one dimension, got {dims}")
        self.n = dims.pop()
        if len(values) != len(complex.edges) or None in values:
            missing = sum(v is None for v in values)
            raise InputError(
                f"Lie cochain missing values on {missing} of {len(complex.edges)} edges"
            )
        self.values = values

    def __call__(self, u: int, v: int) -> FMatrix:
        return self.complex.value(self.values, u, v)

    def with_edge(self, u: int, v: int, value: FMatrix) -> "LieCochain1":
        values = self.complex.indexed({(u, v): value}, self.values)
        return LieCochain1(self.complex, values)


def holonomy_residual(w: LieCochain1) -> List[FMatrix]:
    """Per-triangle exp(w(uv)) exp(w(vw)) exp(w(wu)) - I.

    Independent flatness oracle: exact discrete-connection flatness makes the
    triangle holonomy the identity regardless of any Maurer-Cartan
    discretization convention.
    """
    ident = FMatrix.identity(w.n)
    return [
        matrix_exp(a) @ matrix_exp(b) @ matrix_exp(-c) - ident
        for a, b, c in w.complex.triangle_values(w.values)
    ]
