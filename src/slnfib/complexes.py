"""Triangulated tori, 1-cochains, coboundary, periods, discrete flatness.

Complexes are built from the standard monotone-diagonal triangulation of the
unit cube grid: each grid cell is cut along increasing 0/1-vector chains, so
for d = 2 every square splits along the (+1, +1) diagonal.  The d-torus on an
m^d grid carries explicit covering data: the deck group Z^d acts on integer
grid coordinates by shifts of m.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import DimensionError, InputError
from .linalg import FMatrix, matrix_exp

Edge = Tuple[int, int]
Value = Union[float, Fraction]

WINDOW_COPIES = 3  # fundamental domains per axis in a developing-map window


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

    def deck(self, coords: Sequence[int], gen: int, power: int = 1) -> Tuple[int, ...]:
        out = list(coords)
        out[gen] += power * self.m
        return tuple(out)

    def window(self) -> List[Tuple[int, ...]]:
        """All covering vertices in [0, WINDOW_COPIES*m)^d."""
        rng = range(WINDOW_COPIES * self.m)
        return [tuple(reversed(c)) for c in itertools.product(rng, repeat=self.d)]


class SimplicialComplex:
    """Oriented 1- and 2-skeleton (plus tetrahedra for 3-complexes)."""

    def __init__(
        self,
        n_vertices: int,
        edges: Sequence[Edge],
        triangles: Sequence[Tuple[int, int, int]],
        tetrahedra: Sequence[Tuple[int, int, int, int]] = (),
        covering: Optional[TorusCovering] = None,
        vertex_coords: Optional[List[Tuple[int, ...]]] = None,
    ):
        self.n_vertices = n_vertices
        self.edges = [tuple(e) for e in edges]
        self.triangles = [tuple(t) for t in triangles]
        self.tetrahedra = [tuple(t) for t in tetrahedra]
        self.covering = covering
        self.vertex_coords = vertex_coords

        self._edge_index: Dict[Edge, int] = {}
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                raise InputError(f"degenerate edge ({u},{v})")
            if (u, v) in self._edge_index or (v, u) in self._edge_index:
                raise InputError(f"duplicate edge ({u},{v})")
            self._edge_index[(u, v)] = i

        self._vertex_edges: Dict[int, List[Edge]] = {v: [] for v in range(n_vertices)}
        for u, v in self.edges:
            self._vertex_edges[u].append((u, v))
            self._vertex_edges[v].append((u, v))

        self._edge_triangles: Dict[Edge, List[int]] = {}
        for t_i, (a, b, c) in enumerate(self.triangles):
            for u, v in ((a, b), (b, c), (a, c)):
                key = self.canonical_edge(u, v)
                if key is None:
                    raise InputError(
                        f"triangle {self.triangles[t_i]} boundary edge "
                        f"({u},{v}) missing from complex"
                    )
                self._edge_triangles.setdefault(key, []).append(t_i)

    def canonical_edge(self, u: int, v: int) -> Optional[Edge]:
        if (u, v) in self._edge_index:
            return (u, v)
        if (v, u) in self._edge_index:
            return (v, u)
        return None

    def has_edge(self, u: int, v: int) -> bool:
        return self.canonical_edge(u, v) is not None

    def incident_edges(self, v: int) -> List[Edge]:
        return self._vertex_edges[v]

    def triangles_of_edge(self, u: int, v: int) -> List[int]:
        key = self.canonical_edge(u, v)
        return self._edge_triangles.get(key, []) if key else []

    def is_manifold_like(self) -> bool:
        """Every edge lies in at most two triangles (2D criterion)."""
        return all(len(ts) <= 2 for ts in self._edge_triangles.values())

    @property
    def top_simplices(self):
        """Tetrahedra, else triangles, else edges (for a 1-complex)."""
        return self.tetrahedra or self.triangles or self.edges

    def euler_characteristic(self) -> int:
        return (
            self.n_vertices
            - len(self.edges)
            + len(self.triangles)
            - len(self.tetrahedra)
        )


def _monotone_vectors(d: int) -> List[Tuple[int, ...]]:
    return [v for v in itertools.product((0, 1), repeat=d) if any(v)]


def torus_complex(d: int, m: int) -> SimplicialComplex:
    """Standard triangulated flat d-torus on an m^d grid, d in {1, 2, 3}."""
    if d not in (1, 2, 3):
        raise DimensionError(f"torus dimension must be 1, 2 or 3, got {d}")
    if m < 3:
        raise InputError(f"need m >= 3 subdivisions to avoid degenerate edges, got {m}")
    cov = TorusCovering(d, m)
    coords = [None] * (m ** d)
    for c in itertools.product(range(m), repeat=d):
        c = tuple(reversed(c))
        coords[cov.base_index(c)] = c

    def add(z, e):
        return tuple(z_i + e_i for z_i, e_i in zip(z, e))

    vecs = _monotone_vectors(d)
    edges: List[Edge] = []
    for z in coords:
        for e in vecs:
            edges.append((cov.base_index(z), cov.base_index(add(z, e))))

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
    return SimplicialComplex(
        m ** d, edges, triangles, tets, covering=cov, vertex_coords=coords
    )


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
    if cov is None:
        raise InputError("homology generators require torus covering data")
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
    """Real or exact-rational values on oriented edges, antisymmetric."""

    def __init__(self, complex: SimplicialComplex, values: Dict[Edge, Value]):
        self.complex = complex
        self.values: Dict[Edge, Value] = {}
        for (u, v), val in values.items():
            key = complex.canonical_edge(u, v)
            if key is None:
                raise InputError(f"cochain value on missing edge ({u},{v})")
            self.values[key] = val if key == (u, v) else -val
        for e in complex.edges:
            self.values.setdefault(e, 0)

    def __call__(self, u: int, v: int) -> Value:
        key = self.complex.canonical_edge(u, v)
        if key is None:
            raise InputError(f"no edge ({u},{v})")
        val = self.values[key]
        return val if key == (u, v) else -val

    def __add__(self, other: "ScalarCochain1") -> "ScalarCochain1":
        return ScalarCochain1(
            self.complex,
            {e: self.values[e] + other.values[e] for e in self.complex.edges},
        )

    def scale(self, c) -> "ScalarCochain1":
        return ScalarCochain1(
            self.complex, {e: c * self.values[e] for e in self.complex.edges}
        )

    def sup(self) -> float:
        return max(abs(v) for v in self.values.values())

    @classmethod
    def from_vertex_function(cls, complex: SimplicialComplex, f) -> "ScalarCochain1":
        """The exact cochain df with df(u, v) = f(v) - f(u)."""
        return cls(complex, {(u, v): f[v] - f[u] for u, v in complex.edges})


def coordinate_cochain(complex: SimplicialComplex, axis: int) -> ScalarCochain1:
    """dx_axis on a torus complex: 1/m per unit step along the axis.

    Closed, with period 1 on the axis generator and 0 on the others; these are
    the stored harmonic duals of the torus homology basis.
    """
    cov = complex.covering
    if cov is None or complex.vertex_coords is None:
        raise InputError("coordinate cochain requires a torus complex")
    step = Fraction(1, cov.m)
    values = {}
    for u, v in complex.edges:
        cu, cv = complex.vertex_coords[u], complex.vertex_coords[v]
        delta = (cv[axis] - cu[axis]) % cov.m
        if delta > cov.m // 2:
            delta -= cov.m
        values[(u, v)] = step * delta
    return ScalarCochain1(complex, values)


def coboundary(w: ScalarCochain1) -> List[Value]:
    """Per-triangle values (dw)(u,v,w) = w(u,v) + w(v,w) - w(u,w)."""
    out = []
    for u, v, t in w.complex.triangles:
        out.append(w(u, v) + w(v, t) - w(u, t))
    return out


def is_closed(w: ScalarCochain1, tol: float = 0.0) -> bool:
    return all(abs(x) <= tol for x in coboundary(w))


def period(w: ScalarCochain1, c: Cycle) -> Value:
    total = 0
    for u, v in c.edges:
        total = total + w(u, v)
    return total


class LieCochain1:
    """Traceless-matrix values on oriented edges, antisymmetric.

    Values live in sl(n, R) as FMatrix entries of a single dimension n.
    """

    def __init__(self, complex: SimplicialComplex, values: Dict[Edge, FMatrix]):
        self.complex = complex
        dims = {v.n for v in values.values()}
        if len(dims) != 1:
            raise InputError(f"Lie cochain values must share one dimension, got {dims}")
        self.n = dims.pop()
        self.values: Dict[Edge, FMatrix] = {}
        for (u, v), val in values.items():
            key = complex.canonical_edge(u, v)
            if key is None:
                raise InputError(f"cochain value on missing edge ({u},{v})")
            self.values[key] = val if key == (u, v) else -val
        missing = [e for e in complex.edges if e not in self.values]
        if missing:
            raise InputError(f"Lie cochain missing values on {len(missing)} edges")

    def __call__(self, u: int, v: int) -> FMatrix:
        key = self.complex.canonical_edge(u, v)
        if key is None:
            raise InputError(f"no edge ({u},{v})")
        val = self.values[key]
        return val if key == (u, v) else -val

    def with_edge(self, u: int, v: int, value: FMatrix) -> "LieCochain1":
        out = dict(self.values)
        key = self.complex.canonical_edge(u, v)
        out[key] = value if key == (u, v) else -value
        return LieCochain1(self.complex, out)

    def component(self, extract) -> ScalarCochain1:
        """Scalar cochain obtained by a linear functional on each value."""
        return ScalarCochain1(
            self.complex, {e: extract(v) for e, v in self.values.items()}
        )


def _commutator(a: FMatrix, b: FMatrix) -> FMatrix:
    return a @ b - b @ a


def flatness_residual(w: LieCochain1) -> List[FMatrix]:
    """Per-triangle dw + [w(uv), w(vw)], the discrete Maurer-Cartan residual.

    The cup-product pairing 1/2([a,b] - [b,a]) = [a,b] reproduces the
    continuum 1/2[w, w] term to second order in the mesh size.
    """
    out = []
    for u, v, t in w.complex.triangles:
        a, b = w(u, v), w(v, t)
        dw = a + b - w(u, t)
        out.append(dw + _commutator(a, b))
    return out


def holonomy_residual(w: LieCochain1) -> List[FMatrix]:
    """Per-triangle exp(w(uv)) exp(w(vw)) exp(w(wu)) - I.

    Independent flatness oracle: exact discrete-connection flatness makes the
    triangle holonomy the identity regardless of any Maurer-Cartan
    discretization convention.
    """
    out = []
    ident = FMatrix.identity(w.n)
    for u, v, t in w.complex.triangles:
        hol = ident
        for a, b in ((u, v), (v, t), (t, u)):
            hol = hol @ matrix_exp(w(a, b))
        out.append(hol - ident)
    return out

