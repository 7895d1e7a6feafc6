"""Lie-foliation data on triangulated tori and its structural checks.

A foliation spec bundles a complex with covering data, a flat 1-cochain, a
holonomy representation of the deck group, and a finite window of the
developing map on the covering grid.  The checks are the discrete versions of
the defining conditions: cocycle compatibility on chart overlaps, the
Maurer-Cartan equation plus pointwise surjectivity, and equivariance
D(deck_g . x) = h(g) . D(x).

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
    torus_complex,
)

# ---------------------------------------------------------------------------
# Foliated cocycles


@dataclass
class FoliatedCocycle:
    """Charts with submersion samples and left-translation transitions."""

    group: Group
    charts: List[frozenset]
    submersions: List[Dict[int, GroupElement]]
    transitions: Dict[Tuple[int, int], GroupElement]

    def __post_init__(self):
        if len(self.charts) != len(self.submersions):
            raise InputError("one submersion sample set per chart required")


@dataclass
class CocycleReport:
    max_transition_violation: float
    max_cocycle_violation: float
    worst_overlap: Optional[Tuple[int, int]]

    def passed(self, tol: float) -> bool:
        return (
            self.max_transition_violation <= tol
            and self.max_cocycle_violation <= tol
        )

    def to_dict(self):
        return {
            "max_transition_violation": self.max_transition_violation,
            "max_cocycle_violation": self.max_cocycle_violation,
            "worst_overlap": list(self.worst_overlap) if self.worst_overlap else None,
        }


def check_cocycle(c: FoliatedCocycle) -> CocycleReport:
    """Verify f_j = gamma_ij . f_i on overlaps and the triple-cocycle identity.

    Violations are reported, never raised; the report carries the maxima.
    """
    group = c.group
    max_trans, worst = 0.0, None
    n_charts = len(c.charts)
    for i in range(n_charts):
        for j in range(n_charts):
            if i == j or (i, j) not in c.transitions:
                continue
            gamma = c.transitions[(i, j)]
            for v in c.charts[i] & c.charts[j]:
                expect = group.mul(gamma, c.submersions[i][v])
                dev = group.dist(c.submersions[j][v], expect)
                if dev > max_trans:
                    max_trans, worst = dev, (i, j)
    max_coc = 0.0
    for i in range(n_charts):
        if (i, i) in c.transitions:
            max_coc = max(
                max_coc,
                group.dist(c.transitions[(i, i)], group.identity()),
            )
        for j in range(n_charts):
            for k in range(n_charts):
                if (
                    (i, j) in c.transitions
                    and (j, k) in c.transitions
                    and (i, k) in c.transitions
                    and c.charts[i] & c.charts[j] & c.charts[k]
                ):
                    composed = group.mul(c.transitions[(j, k)], c.transitions[(i, j)])
                    max_coc = max(
                        max_coc, group.dist(composed, c.transitions[(i, k)])
                    )
    return CocycleReport(max_trans, max_coc, worst)


# ---------------------------------------------------------------------------
# Foliation spec


@dataclass
class LieFoliationSpec:
    """A complex, a flat cochain, a holonomy rep, and developing samples.

    holonomy holds the images of the Z^d deck generators, which must commute;
    developing is a finite sample window of the developing map on the
    covering grid.
    """

    complex: SimplicialComplex
    group: Group
    holonomy: List[GroupElement]
    developing: Dict[Tuple[int, ...], GroupElement]
    cochain: Optional[LieCochain1] = None
    scalar_cochains: Optional[List[ScalarCochain1]] = None

    def __post_init__(self):
        if self.complex.covering is None:
            raise InputError("foliation specs require covering data")
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
                if group.dist(group.mul(a, b), group.mul(b, a)) > EQ_TOL:
                    raise InputError("deck generator images do not commute")

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

    def edge_lift(self, u: int, v: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Canonical covering lift of an oriented base edge."""
        cov = self.complex.covering
        zu = self.complex.vertex_coords[u]
        zv_raw = self.complex.vertex_coords[v]
        e = tuple((b - a) % cov.m for a, b in zip(zu, zv_raw))
        if any(x not in (0, 1) for x in e):
            # oriented the other way round in the grid construction
            return tuple(reversed(self.edge_lift(v, u)))
        return zu, tuple(a + x for a, x in zip(zu, e))

    def validate_consistency(self) -> float:
        """Max deviation between the cochain and developing increments."""
        worst = 0.0
        for u, v in self.complex.edges:
            zu, zv = self.edge_lift(u, v)
            du, dv = self.developing_value(zu), self.developing_value(zv)
            if self.is_abelian():
                inc = tuple(b - a for a, b in zip(du, dv))
                got = tuple(w(u, v) for w in self.scalar_cochains)
                worst = max(
                    worst, max(abs(float(x) - y) for x, y in zip(got, inc))
                )
            else:
                gu, gv = self.group.matrix(du), self.group.matrix(dv)
                logged = matrix_log(gu.inv() @ gv)
                worst = max(worst, logged.dist(self.cochain(u, v)))
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


def _edge_value_vector(spec: LieFoliationSpec, u: int, v: int) -> List[float]:
    if spec.is_abelian():
        return [float(w(u, v)) for w in spec.scalar_cochains]
    return spec.group.coords(spec.cochain(u, v))


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
    failing_triangles: List[int] = []
    max_res = 0.0
    if spec.is_abelian():
        limit = EQ_TOL
        per_tri = [
            max(abs(float(coboundary(w)[t])) for w in spec.scalar_cochains)
            for t in range(len(spec.complex.triangles))
        ]
    else:
        limit = HOLONOMY_TOL
        per_tri = [r.sup() for r in holonomy_residual(spec.cochain)]
    for t, r in enumerate(per_tri):
        max_res = max(max_res, r)
        if r > limit:
            failing_triangles.append(t)

    dim = spec.group.dim
    failing_vertices: List[int] = []
    for vtx in range(spec.complex.n_vertices):
        vecs = [
            _edge_value_vector(spec, u, v)
            for u, v in spec.complex.incident_edges(vtx)
        ]
        if len(vecs) < dim:
            failing_vertices.append(vtx)
            continue
        s = np.linalg.svd(np.array(vecs), compute_uv=False)
        rank = int(np.sum(s > RANK_THRESHOLD * s[0])) if s[0] > 0 else 0
        if rank < dim:
            failing_vertices.append(vtx)

    return MCReport(
        flat=not failing_triangles,
        max_flatness_residual=max_res,
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
    values = {}
    for u, v in complex.edges:
        zu = complex.vertex_coords[u]
        zv = (zu[0] + 1,)
        gu = ga_embed(ga_power(hol, zu[0] / m))
        gv = ga_embed(ga_power(hol, zv[0] / m))
        values[(u, v)] = matrix_log(gu.inv() @ gv)
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
    cov = base.complex.covering
    if cov is None or cov.d != 1:
        raise InputError("product construction needs a circle base")
    m = cov.m
    complex = torus_complex(2, m)

    def dev(z):
        d0 = base.developing_value((z[0],))
        return ga_embed(d0) @ rotation(2.0 * math.pi * z[1] / m)

    samples = {z: dev(z) for z in complex.covering.window()}
    values = {}
    for u, v in complex.edges:
        zu = complex.vertex_coords[u]
        e = tuple(
            (complex.vertex_coords[v][i] - zu[i]) % m for i in range(2)
        )
        zv = (zu[0] + e[0], zu[1] + e[1])
        try:
            values[(u, v)] = matrix_log(dev(zu).inv() @ dev(zv))
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
    # constructor contract: never emit an unchecked spec
    report = check_mc(spec)
    if not report.flat:
        raise CheckFailed("product foliation failed the flatness check")
    if spec.validate_consistency() > RESIDUAL_TOL * 10:
        raise CheckFailed("product foliation cochain inconsistent with developing map")
    return spec


# ---------------------------------------------------------------------------
# Factor projection


def _ank_chart(g: FMatrix) -> Tuple[float, ...]:
    return iwasawa_sln_ank(g).chart


def project_foliation(spec: LieFoliationSpec, which: int) -> LieFoliationSpec:
    """Project a product-structured foliation onto one factor.

    Abelian specs split by coordinates: R^k into R^(k-2) x R^2, R^2 into
    R x R.  SL(2)/SL(n) specs use the Iwasawa product: factor 1 is the GA
    part (SL(2) only), factor 2 the final two coordinates of the
    triangular-left vector chart.  Projected scalar cochains are rebuilt from
    chart differences of the developing map and re-verified for closedness; a
    violation raises CheckFailed rather than propagating an unsound fibration
    input.
    """
    if which not in (1, 2):
        raise InputError("factor index must be 1 or 2")
    group = spec.group
    if isinstance(group, Rk):
        k = group.k
        if k < 2:
            raise InputError(f"{group.tag} has no product structure")
        k1 = k - 2 if k > 2 else 1
        sel = list(range(k1)) if which == 1 else list(range(k1, k))
        out = LieFoliationSpec(
            complex=spec.complex,
            group=Rk(len(sel)),
            holonomy=[tuple(h[i] for i in sel) for h in spec.holonomy],
            developing={
                z: tuple(val[i] for i in sel) for z, val in spec.developing.items()
            },
            scalar_cochains=[spec.scalar_cochains[i] for i in sel],
        )
        _require_closed(out)
        return out

    if not isinstance(group, SL):
        raise InputError(f"no product structure on group {group.tag}")

    if which == 1:
        if group != SL(2):
            raise InputError("factor 1 (GA part) is only defined for SL(2) specs")
        values = {}
        for u, v in spec.complex.edges:
            zu, zv = spec.edge_lift(u, v)
            gu = ga_embed(iwasawa_sl2(spec.developing_value(zu))[0])
            gv = ga_embed(iwasawa_sl2(spec.developing_value(zv))[0])
            values[(u, v)] = matrix_log(gu.inv() @ gv)
        return LieFoliationSpec(
            complex=spec.complex,
            group=GA(),
            holonomy=[iwasawa_sl2(h)[0] for h in spec.holonomy],
            developing={z: iwasawa_sl2(g)[0] for z, g in spec.developing.items()},
            cochain=LieCochain1(spec.complex, values),
        )

    # which == 2: the abelian R^2 chart factor
    coords = factor_split(group.n).g2_coords
    values1, values2 = {}, {}
    for u, v in spec.complex.edges:
        zu, zv = spec.edge_lift(u, v)
        cu = _ank_chart(spec.developing_value(zu))
        cv = _ank_chart(spec.developing_value(zv))
        values1[(u, v)] = cv[coords[0]] - cu[coords[0]]
        values2[(u, v)] = cv[coords[1]] - cu[coords[1]]
    out = LieFoliationSpec(
        complex=spec.complex,
        group=Rk(2),
        holonomy=[tuple(_ank_chart(h)[c] for c in coords) for h in spec.holonomy],
        developing={
            z: tuple(_ank_chart(g)[c] for c in coords)
            for z, g in spec.developing.items()
        },
        scalar_cochains=[
            ScalarCochain1(spec.complex, values1),
            ScalarCochain1(spec.complex, values2),
        ],
    )
    _require_closed(out)
    return out


def _require_closed(spec: LieFoliationSpec):
    worst = 0.0
    for w in spec.scalar_cochains:
        worst = max(worst, max((abs(float(x)) for x in coboundary(w)), default=0.0))
    if worst > RESIDUAL_TOL:
        raise CheckFailed(
            f"projected cochain is not closed: max coboundary {worst:.3e}"
        )
