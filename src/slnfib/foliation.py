"""Lie-foliation data on triangulated tori and its structural checks.

A foliation spec bundles a complex with covering data, a flat 1-cochain, a
holonomy representation of the deck group, and a finite window of the
developing map on the covering grid.  The checks are the discrete versions of
the defining conditions: the Maurer-Cartan equation plus pointwise
surjectivity, and equivariance D(deck_g . x) = h(g) . D(x).

The target group is one of the types GA, SL(n) and R^k of slnfib.groups; it
supplies the group law, the algebra dimension and the JSON form of elements.
Matrix groups carry a Lie cochain of FMatrix values, R^k carries k scalar
cochains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CheckFailed, InputError, LogDomain
from .linalg import EQ_TOL, RESIDUAL_TOL, FMatrix, matrix_log
from .groups import (
    GA,
    SL,
    GAElement,
    Group,
    GroupElement,
    Rk,
    factor_split,
    ga_embed,
    ga_power,
    iwasawa_sl2,
    iwasawa_sln_ank,
    rotation,
)
from .complexes import (
    LieCochain1,
    ScalarCochain1,
    SimplicialComplex,
    coboundary,
    coordinate_cochain,
    holonomy_residual,
    max_coboundary,
    torus_complex,
)

# ---------------------------------------------------------------------------
# Foliation spec


@dataclass
class LieFoliationSpec:
    """A complex, a flat cochain, a holonomy rep, and developing samples.

    holonomy holds the images of the Z^d deck generators, which must commute;
    developing is a finite sample window of the developing map on the
    covering grid, keyed by integer d-tuples, that holds every base vertex
    in [0, m)^d.
    """

    complex: SimplicialComplex
    group: Group
    holonomy: List[GroupElement]
    developing: Dict[Tuple[int, ...], GroupElement]
    cochain: Optional[LieCochain1] = None
    scalar_cochains: Optional[List[ScalarCochain1]] = None

    def __post_init__(self):
        group = self.group
        if isinstance(group, Rk):
            want = f"{group.k} scalar cochains"
            ok = (
                self.cochain is None
                and self.scalar_cochains is not None
                and len(self.scalar_cochains) == group.k
            )
        else:
            want = f"a cochain of {group.n}x{group.n} matrices"
            ok = (
                self.scalar_cochains is None
                and self.cochain is not None
                and self.cochain.n == group.n
            )
        if not ok:
            raise InputError(f"{group.tag} spec needs {want} and no other cochain")
        d = self.complex.covering.d
        if len(self.holonomy) != d:
            raise InputError(f"holonomy needs {d} images, got {len(self.holonomy)}")
        for i, a in enumerate(self.holonomy):
            for b in self.holonomy[i + 1:]:
                if not group.dist(group.mul(a, b), group.mul(b, a)) <= EQ_TOL:
                    raise InputError("deck generator images do not commute")
        for z in self.developing:
            if len(z) != d or not all(isinstance(c, int) for c in z):
                raise InputError(f"developing key {z} is not {d} integer coordinates")
        missing = [z for z in self.complex.vertex_coords if z not in self.developing]
        if missing:
            raise InputError(
                f"developing window misses {len(missing)} base vertices, "
                f"first {missing[0]}"
            )

    def is_abelian(self) -> bool:
        return self.scalar_cochains is not None

    def developing_value(self, z: Tuple[int, ...]) -> GroupElement:
        """Extend the sample window by equivariance D(deck.z) = h . D(z)."""
        if z in self.developing:
            return self.developing[z]
        group = self.group
        cov = self.complex.covering
        shifts = [c // cov.m for c in z]
        base = tuple(c % cov.m for c in z)
        out = self.developing[base]
        for gen, k in enumerate(shifts):
            if k:
                h = self.holonomy[gen] if k > 0 else group.inv(self.holonomy[gen])
                power = group.identity()
                for _ in range(abs(k)):
                    power = group.mul(power, h)
                out = group.mul(power, out)
        return out

    def validate_consistency(self) -> float:
        """Max deviation between the cochain and developing increments."""
        if self.is_abelian():
            edge_values = zip(*(w.values.tolist() for w in self.scalar_cochains))
        else:
            edge_values = self.cochain.values
        worst = 0.0
        for (zu, zv), got in zip(self.complex.edge_lifts, edge_values):
            du, dv = self.developing_value(zu), self.developing_value(zv)
            if self.is_abelian():
                inc = tuple(b - a for a, b in zip(du, dv))
                worst = max(worst, max(abs(x - y) for x, y in zip(got, inc)))
            else:
                gu, gv = self.group.matrix(du), self.group.matrix(dv)
                worst = max(worst, matrix_log(gu.inv() @ gv).dist(got))
        return worst


# ---------------------------------------------------------------------------
# Maurer-Cartan check


@dataclass
class MCReport:
    flat: bool
    max_flatness_residual: float
    surjective: bool
    failing_vertices: List[int]
    failing_triangles: List[int]

    def passed(self) -> bool:
        return self.flat and self.surjective

    def to_dict(self):
        return {
            "flat": self.flat,
            "max_flatness_residual": self.max_flatness_residual,
            "surjective": self.surjective,
            "failing_vertices": self.failing_vertices,
            "failing_triangles": self.failing_triangles,
        }


def _edge_value_vector(spec: LieFoliationSpec, i: int) -> List[float]:
    if spec.is_abelian():
        return [w.values[i] for w in spec.scalar_cochains]
    return spec.group.coords(spec.cochain.values[i])


RANK_THRESHOLD = 1e-8  # singular values below threshold * sigma_max count as zero
HOLONOMY_TOL = 1e-8  # flatness limit on the triangle holonomy residual


def check_mc(spec: LieFoliationSpec) -> MCReport:
    """Discrete Maurer-Cartan conditions.

    Flatness: abelian cochains must have vanishing coboundary within EQ_TOL;
    matrix-valued cochains are judged by the triangle holonomy residual (the
    discretization-free oracle) within HOLONOMY_TOL.  Surjectivity: the
    cochain values on the edges incident to each vertex must span the target
    algebra, judged by an SVD rank with singular values below RANK_THRESHOLD
    times the largest counted as zero.
    """
    if spec.is_abelian():
        limit = EQ_TOL
        per_tri = np.max(np.abs([coboundary(w) for w in spec.scalar_cochains]), axis=0)
    else:
        limit = HOLONOMY_TOL
        per_tri = np.array([r.sup() for r in holonomy_residual(spec.cochain)])
    failing_triangles = np.flatnonzero(~(per_tri <= limit)).tolist()

    dim = spec.group.dim
    failing_vertices: List[int] = []
    for vtx in range(spec.complex.n_vertices):
        vecs = [_edge_value_vector(spec, i) for i in spec.complex.incident_edges(vtx)]
        if len(vecs) < dim:
            failing_vertices.append(vtx)
            continue
        s = np.linalg.svd(np.array(vecs), compute_uv=False)
        rank = int(np.sum(s > RANK_THRESHOLD * s[0])) if s[0] > 0 else 0
        if rank < dim:
            failing_vertices.append(vtx)

    return MCReport(
        flat=not failing_triangles,
        max_flatness_residual=float(np.max(per_tri, initial=0.0)),
        surjective=not failing_vertices,
        failing_vertices=failing_vertices,
        failing_triangles=failing_triangles,
    )


# ---------------------------------------------------------------------------
# Equivariance


@dataclass
class EquivarianceReport:
    max_deviation: float
    checked_pairs: int

    def passed(self, tol: float) -> bool:
        return self.max_deviation <= tol

    def to_dict(self):
        return {
            "max_deviation": self.max_deviation,
            "checked_pairs": self.checked_pairs,
        }


def check_equivariance(spec: LieFoliationSpec) -> EquivarianceReport:
    """Verify D(deck_g . x) = h(g) . D(x) over the stored sample window."""
    samples = spec.developing
    cov = spec.complex.covering
    worst, count = 0.0, 0
    for z, dz in samples.items():
        for gen, h in enumerate(spec.holonomy):
            shifted = cov.deck(z, gen)
            if shifted not in samples:
                continue
            expect = spec.group.mul(h, dz)
            worst = max(worst, spec.group.dist(samples[shifted], expect))
            count += 1
    if count == 0:
        raise InputError("developing window too small for any equivariance pair")
    return EquivarianceReport(worst, count)


# ---------------------------------------------------------------------------
# Constructors


def linear_torus_spec(m: int, rows: Sequence[Sequence[float]]) -> LieFoliationSpec:
    """Abelian R^k foliation on T^d with developing D(z) = A . z / m.

    rows is the k x d coefficient matrix A; holonomy of the axis-k deck
    generator is the k-th column of A.
    """
    k = len(rows)
    d = len(rows[0])
    complex = torus_complex(d, m)
    cochains = []
    duals = [coordinate_cochain(complex, ax) for ax in range(d)]
    for row in rows:
        w = duals[0].scale(row[0])
        for ax in range(1, d):
            w = w + duals[ax].scale(row[ax])
        cochains.append(w)
    samples = {
        z: tuple(
            sum(row[ax] * z[ax] for ax in range(d)) / m for row in rows
        )
        for z in complex.covering.window()
    }
    return LieFoliationSpec(
        complex=complex,
        group=Rk(k),
        holonomy=[tuple(float(row[ax]) for row in rows) for ax in range(d)],
        developing=samples,
        scalar_cochains=cochains,
    )


def ga_suspension(m: int, hol: GAElement) -> LieFoliationSpec:
    """GA foliation on a circle, suspended from one holonomy element.

    The developing map follows the one-parameter subgroup through hol, so the
    deck shift by m multiplies by hol on the left.
    """
    complex = torus_complex(1, m)
    samples = {z: ga_power(hol, z[0] / m) for z in complex.covering.window()}
    values = []
    for zu, zv in complex.edge_lifts:
        gu, gv = ga_embed(samples[zu]), ga_embed(samples[zv])
        values.append(matrix_log(gu.inv() @ gv))
    return LieFoliationSpec(
        complex=complex,
        group=GA(),
        holonomy=[hol],
        developing=samples,
        cochain=LieCochain1(complex, values),
    )


def product_foliation(base: LieFoliationSpec) -> LieFoliationSpec:
    """SL(2) foliation on base x S^1 with D(x, y) = embed(D0(x)) . sigma(y).

    The base must be a GA foliation on a circle; the circle factor reuses the
    base subdivision, the section sigma winds once per fundamental domain, and
    holonomy is extended trivially on the new factor.
    """
    if base.group != GA():
        raise InputError(
            f"product construction needs a GA base, got {base.group.tag}"
        )
    if base.complex.covering.d != 1:
        raise InputError("product construction needs a circle base")
    m = base.complex.covering.m
    complex = torus_complex(2, m)

    def dev(z):
        d0 = base.developing_value((z[0],))
        return ga_embed(d0) @ rotation(2.0 * math.pi * z[1] / m)

    # both ends of an edge lift lie in the stored window [0, 3m)^2
    samples = {z: dev(z) for z in complex.covering.window()}
    values = []
    for zu, zv in complex.edge_lifts:
        try:
            values.append(matrix_log(samples[zu].inv() @ samples[zv]))
        except LogDomain as exc:
            raise InputError(
                f"subdivision m={m} too coarse for edge logarithms "
                f"(rotation step 2*pi/{m}); use m >= 8"
            ) from exc
    sl2 = SL(2)
    spec = LieFoliationSpec(
        complex=complex,
        group=sl2,
        holonomy=[ga_embed(base.holonomy[0]), sl2.identity()],
        developing=samples,
        cochain=LieCochain1(complex, values),
    )
    # constructor contract: never emit a spec that fails the holonomy oracle
    if not check_mc(spec).flat:
        raise CheckFailed("product foliation failed the flatness check")
    return spec


# ---------------------------------------------------------------------------
# Factor projection


def _ank_chart(g: FMatrix) -> Tuple[float, ...]:
    return iwasawa_sln_ank(g).chart


def _per_vertex(spec: LieFoliationSpec, f):
    """f of the developing map, computed once per stored sample.

    Returns f over the stored sample window, and a lookup of f at a covering
    vertex that falls back to the developing map outside the window.
    """
    window = {z: f(g) for z, g in spec.developing.items()}

    def at(z):
        return window[z] if z in window else f(spec.developing_value(z))

    return window, at


def project_foliation(spec: LieFoliationSpec, which: int) -> LieFoliationSpec:
    """Project an SL(n) foliation onto one factor of the Iwasawa product.

    Factor 1 is the GA part (SL(2) only), factor 2 the final two coordinates
    of the triangular-left vector chart.  Projected scalar cochains are
    rebuilt from chart differences of the developing map and re-verified for
    closedness; a violation raises CheckFailed rather than propagating an
    unsound fibration input.
    """
    if which not in (1, 2):
        raise InputError("factor index must be 1 or 2")
    group = spec.group
    if not isinstance(group, SL):
        raise InputError(f"no product structure on group {group.tag}")

    if which == 1:
        if group != SL(2):
            raise InputError("factor 1 (GA part) is only defined for SL(2) specs")
        window, at = _per_vertex(spec, lambda g: iwasawa_sl2(g)[0])
        values = []
        for zu, zv in spec.complex.edge_lifts:
            values.append(matrix_log(ga_embed(at(zu)).inv() @ ga_embed(at(zv))))
        return LieFoliationSpec(
            complex=spec.complex,
            group=GA(),
            holonomy=[iwasawa_sl2(h)[0] for h in spec.holonomy],
            developing=window,
            cochain=LieCochain1(spec.complex, values),
        )

    # which == 2: the abelian R^2 chart factor
    i, j = factor_split(group.n).g2_coords
    window, at = _per_vertex(spec, _ank_chart)
    values1, values2 = [], []
    for zu, zv in spec.complex.edge_lifts:
        cu, cv = at(zu), at(zv)
        values1.append(cv[i] - cu[i])
        values2.append(cv[j] - cu[j])
    out = LieFoliationSpec(
        complex=spec.complex,
        group=Rk(2),
        holonomy=[(c[i], c[j]) for c in map(_ank_chart, spec.holonomy)],
        developing={z: (c[i], c[j]) for z, c in window.items()},
        scalar_cochains=[
            ScalarCochain1(spec.complex, values1),
            ScalarCochain1(spec.complex, values2),
        ],
    )
    _require_closed(out)
    return out


def _require_closed(spec: LieFoliationSpec):
    worst = float(np.max([max_coboundary(w) for w in spec.scalar_cochains]))
    if not worst <= RESIDUAL_TOL:
        raise CheckFailed(
            f"projected cochain is not closed: max coboundary {worst:.3e}"
        )
