"""Lie-foliation data on triangulated tori and its structural checks.

A foliation spec bundles a complex with covering data, a flat 1-cochain, a
holonomy representation of the deck group, and a finite window of the
developing map on the covering grid.  The checks are the discrete versions of
the defining conditions: the Maurer-Cartan equation plus pointwise
surjectivity, and equivariance D(deck_g . x) = h(g) . D(x).

The target group is one of the types GA, SL(n) and R^k of slnfib.groups; it
supplies the group law, the algebra dimension and the JSON form of elements.
Matrix groups carry a Lie cochain, one (E, n, n) array, R^k carries k scalar
cochains.  Every Lie cochain built from a developing map comes from one
routine, edge_logarithms, which takes log(D(zu)^-1 D(zv)) over all edge
lifts (zu, zv) as stacks; flatness and surjectivity are stacked too.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import CheckFailed, InputError, LogDomain, SingularInput
from .linalg import EQ_TOL, RESIDUAL_TOL, FMatrix, matrix_log, require_finite
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
        if not self.is_abelian():
            logs = edge_logarithms(
                self.complex, lambda z: self.group.matrix(self.developing_value(z))
            )
            return float(np.max(np.abs(logs.values - self.cochain.values)))
        lifts = self.complex.edge_lifts
        ends = np.array([[self.developing_value(z) for z in lift] for lift in lifts])
        got = np.stack([w.values for w in self.scalar_cochains], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.max(np.abs(got - (ends[:, 1] - ends[:, 0]))))


def edge_logarithms(complex: SimplicialComplex, matrix_at: Callable) -> LieCochain1:
    """log(D(zu)^-1 D(zv)) over the edge lifts (zu, zv) as one Lie cochain,
    with the FMatrix D(z) = matrix_at(z) gathered at both ends of every lift
    into two stacks.  A singular D(zu) raises SingularInput, a non-finite
    step InputError, and the first edge outside the log ball LogDomain."""
    ends = np.array(
        [[matrix_at(zu).arr, matrix_at(zv).arr] for zu, zv in complex.edge_lifts]
    )
    try:
        inverse = np.linalg.inv(ends[:, 0])
    except np.linalg.LinAlgError as e:
        raise SingularInput(f"developing value at an edge tail is singular: {e}") from e
    with np.errstate(over="ignore", invalid="ignore"):
        step = require_finite(inverse @ ends[:, 1])
    return LieCochain1(complex, matrix_log(step))


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
        return asdict(self)


RANK_THRESHOLD = 1e-8  # singular values below threshold * sigma_max count as zero
HOLONOMY_TOL = 1e-8  # flatness limit on the triangle holonomy residual


def check_mc(spec: LieFoliationSpec) -> MCReport:
    """Discrete Maurer-Cartan conditions.

    Flatness: abelian cochains must have vanishing coboundary within EQ_TOL;
    matrix-valued cochains are judged by the triangle holonomy residual (the
    discretization-free oracle) within HOLONOMY_TOL.  Surjectivity: the
    cochain values on the edges incident to each vertex must span the target
    algebra, judged by an SVD rank with singular values below RANK_THRESHOLD
    times the largest counted as zero; one stacked SVD covers all vertices.

    Limitation: the values at a vertex are edge logarithms, not the
    differential of the developing map.  On T^2 an SL(2) spec reaches rank 3
    only through their second-order (bracket) term, so the smallest counted
    ratio sigma_3/sigma_1 decays like 1/m (about 0.17/m on the product spec
    (1.5, 0.3)), and no submersion R^2 -> SL(2) exists; the verdict still
    reads surjective.
    """
    if spec.is_abelian():
        limit = EQ_TOL
        per_tri = np.max(np.abs([coboundary(w) for w in spec.scalar_cochains]), axis=0)
        coords = np.stack([w.values for w in spec.scalar_cochains], axis=1)
    else:
        limit = HOLONOMY_TOL
        per_tri = np.abs(holonomy_residual(spec.cochain)).max(axis=(1, 2))
        coords = spec.group.coords(spec.cochain.values)
    failing_triangles = np.flatnonzero(~(per_tri <= limit)).tolist()

    s = np.linalg.svd(coords[spec.complex.incidence], compute_uv=False)
    rank = np.sum(s > RANK_THRESHOLD * s[:, :1], axis=1)
    failing_vertices = np.flatnonzero(rank < spec.group.dim).tolist()

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
        return asdict(self)


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
    return LieFoliationSpec(
        complex=complex,
        group=GA(),
        holonomy=[hol],
        developing=samples,
        cochain=edge_logarithms(complex, lambda z: ga_embed(samples[z])),
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
    try:
        cochain = edge_logarithms(complex, lambda z: samples[z])
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
        cochain=cochain,
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
        return LieFoliationSpec(
            complex=spec.complex,
            group=GA(),
            holonomy=[iwasawa_sl2(h)[0] for h in spec.holonomy],
            developing=window,
            cochain=edge_logarithms(spec.complex, lambda z: ga_embed(at(z))),
        )

    # which == 2: the abelian R^2 chart factor
    i, j = factor_split(group.n).g2_coords
    window, at = _per_vertex(spec, _ank_chart)
    ends = np.array([[at(zu), at(zv)] for zu, zv in spec.complex.edge_lifts])
    with np.errstate(over="ignore", invalid="ignore"):
        steps = ends[:, 1, [i, j]] - ends[:, 0, [i, j]]
    out = LieFoliationSpec(
        complex=spec.complex,
        group=Rk(2),
        holonomy=[(c[i], c[j]) for c in map(_ank_chart, spec.holonomy)],
        developing={z: (c[i], c[j]) for z, c in window.items()},
        scalar_cochains=[ScalarCochain1(spec.complex, x) for x in steps.T],
    )
    worst = float(np.max([max_coboundary(w) for w in out.scalar_cochains]))
    if not worst <= RESIDUAL_TOL:
        raise CheckFailed(
            f"projected cochain is not closed: max coboundary {worst:.3e}"
        )
    return out
