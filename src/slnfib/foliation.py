"""Lie-foliation data on triangulated tori and its structural checks.

A foliation spec bundles a complex with covering data, a flat 1-cochain, a
holonomy representation of the deck group, and a finite window of the
developing map: an (N, d) int array of covering grid points and one array
of their group elements, row for row.  Points are looked up in the window by
a searchsorted over its sorted row keys.  The checks are the discrete versions
of the defining conditions: the Maurer-Cartan equation plus pointwise
surjectivity, and equivariance D(deck_g . x) = h(g) . D(x).

The target group is one of the types GA, SL(n) and R^k of slnfib.groups; it
supplies the group law on stacks, the algebra dimension and the JSON form of
elements.  Every spec carries one Lie cochain, a plain edge array: (E, n, n)
for a matrix group, (E, k) for R^k, a column per component, whose flatness
is closedness.  Every matrix cochain built from a developing map comes from
one routine, edge_logarithms, which takes log(D(zu)^-1 D(zv)) over all edge
lifts (zu, zv) as stacks; flatness, surjectivity, equivariance and the
Iwasawa charts of the projection are stacked too.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Sequence

import numpy as np

from .errors import CheckFailed, InputError, LogDomain
from .linalg import EQ_TOL, RESIDUAL_TOL, matrix_log, require_finite
from .groups import (
    GA,
    SL,
    Group,
    Rk,
    iwasawa_sln_ank,
    require_ga,
    require_unimodular,
)
from .complexes import (
    WINDOW_COPIES,
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

    The cochain holds the group's algebra values on the edges of complex as
    one read-only float64 array: (E, n, n) finite matrices for GA and SL(n),
    (E, k) for R^k.  holonomy holds the images of the Z^d deck generators,
    which must commute; developing holds the developing map at the rows of
    window, an (N, d) int array of grid points that holds every base vertex
    in [0, m)^d.  Both are read-only stacks of
    elements in the group's array form: for SL(n) every element has det 1
    within 100 EQ_TOL, and for GA every row (a, b) has a > 0.
    """

    complex: SimplicialComplex
    group: Group
    holonomy: np.ndarray
    window: np.ndarray
    developing: np.ndarray
    cochain: np.ndarray

    def __post_init__(self):
        group, edges = self.group, self.complex.edges
        if isinstance(group, Rk):
            want, shape = f"{group.k} scalar cochains", (group.k,)
        else:
            want, shape = f"a cochain of {group.n}x{group.n} matrices", (group.n,) * 2
        try:  # a ragged list raises ValueError, and None reads as a 0-d NaN
            values = np.array(self.cochain, dtype=np.float64)
        except (TypeError, ValueError):
            values = np.empty(0)
        if values.shape != (len(edges),) + shape:
            raise InputError(f"{group.tag} spec needs {want} and no other cochain")
        if not isinstance(group, Rk):
            value = "Lie cochain value on edge {}-{}".format
            require_finite(values, lambda i: value(*edges[i]))
        d = self.complex.covering.d
        hol = np.array(self.holonomy, dtype=np.float64)
        keys = np.array(self.window)
        dev = np.array(self.developing, dtype=np.float64)
        if len(hol) != d:
            raise InputError(f"holonomy needs {d} images, got {len(hol)}")
        if keys.dtype.kind not in "iu" or keys.shape != (len(dev), d):
            raise InputError(f"window needs one row of {d} ints per developing sample")
        for x in (values, hol, keys, dev):
            x.flags.writeable = False
        self.cochain, self.holonomy, self.window = values, hol, keys
        self.developing = dev

        def sample(i):
            return 'developing sample "%s"' % ",".join(map(str, keys[i]))

        if isinstance(group, SL):
            require_unimodular(hol, "holonomy image {}".format, InputError)
            require_unimodular(dev, sample, InputError)
        elif isinstance(group, GA):
            require_ga(hol, "holonomy image {}".format)
            require_ga(dev, sample)
        for i, a in enumerate(hol):
            for b in hol[i + 1:]:
                # an overflowing product gives inf or NaN, refused here
                with np.errstate(over="ignore", invalid="ignore"):
                    gap = group.dist(group.mul(a, b), group.mul(b, a))
                if not gap <= EQ_TOL:
                    raise InputError("deck generator images do not commute")
        # window rows sorted by key, equal keys in row order, for searchsorted
        row_keys = _row_keys(keys)
        self._order = np.argsort(row_keys, kind="stable")
        self._sorted = row_keys[self._order]
        missing = np.flatnonzero(self.rows(self.complex.vertex_coords) < 0)
        if missing.size:
            first = tuple(self.complex.vertex_coords[missing[0]].tolist())
            raise InputError(
                f"developing window misses {missing.size} base vertices, "
                f"first {first}"
            )

    def rows(self, points) -> np.ndarray:
        """The window row of every point of a (..., d) int array, -1 off it;
        of two rows with one key, the later."""
        points = np.asarray(points, dtype=np.int64)
        key = _row_keys(points.reshape(-1, points.shape[-1]))
        at = np.searchsorted(self._sorted, key, side="right") - 1
        found = at >= 0
        found[found] = self._sorted[at[found]] == key[found]
        out = np.full(key.shape, -1)
        out[found] = self._order[at[found]]
        return out.reshape(points.shape[:-1])

    def developing_value(self, points) -> np.ndarray:
        """D at every point of a (..., d) int array, as one row gather.  A
        point outside the window is h(g_k) ... h(g_1) . D(base) over the deck
        generators it is shifted by, each at most once: every edge lift lies
        in [0, m]^d."""
        points = np.asarray(points, dtype=np.int64)
        rows = self.rows(points)
        out, outside = self.developing[rows], rows < 0
        shift, base = np.divmod(points[outside], self.complex.covering.m)
        if not np.isin(shift, (0, 1)).all():
            raise InputError("developing point more than one deck step from [0, m)^d")
        value = self.developing[self.rows(base)]
        for gen, h in enumerate(self.holonomy):
            value[shift[:, gen] == 1] = self.group.mul(h, value[shift[:, gen] == 1])
        out[outside] = value
        return out

    def validate_consistency(self) -> float:
        """Max deviation between the cochain and developing increments."""
        ends = self.developing_value(self.complex.lifts)
        if isinstance(self.group, Rk):
            with np.errstate(over="ignore", invalid="ignore"):
                steps = ends[:, 1] - ends[:, 0]
                return float(np.max(np.abs(self.cochain - steps)))
        logs = edge_logarithms(self.complex, self.group.matrix(ends))
        return float(np.max(np.abs(logs - self.cochain)))


def _row_keys(points: np.ndarray) -> np.ndarray:
    """One sortable key per row of an (N, d) int64 array: its d * 8 bytes as
    one void value, equal exactly where the rows are equal."""
    rows = np.ascontiguousarray(points, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[-1]))).ravel()


def edge_logarithms(complex: SimplicialComplex, ends: np.ndarray) -> np.ndarray:
    """log(D(zu)^-1 D(zv)) over the edge lifts (zu, zv) as one (E, n, n) Lie
    cochain, from the (E, 2, n, n) stack ends of D at both ends of every
    lift.  A non-finite step raises InputError naming its first edge, and
    the first edge outside the log ball a LogDomain that names it too;
    every D is invertible (det 1, or the embedding of a GA element)."""
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.linalg.inv(ends[:, 0]) @ ends[:, 1]

    def edge(i):
        return "developing step on edge {}-{}".format(*complex.edges[i])

    return matrix_log(require_finite(step, edge), edge)


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

    Flatness: R^k cochains must have vanishing coboundary within EQ_TOL;
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
    reads surjective.  Beyond that, by Fedida's theorem (1971; see Molino,
    Riemannian Foliations, 1988) the leaf closures of a Lie G-foliation on a
    compact manifold fibre it over the quotient of G by the closure of the
    holonomy group, which must then be compact; on a torus that closure is
    abelian, and no closed abelian subgroup of SL(2,R) or GA is cocompact.
    So no torus carries a Lie SL(2,R)- or GA-foliation, and on a torus spec
    `surjective` only says that the edge logarithms at each vertex span the
    algebra.  SL(n), n >= 3, is not yet argued.
    """
    if isinstance(spec.group, Rk):
        limit = EQ_TOL
        per_tri = np.abs(coboundary(spec.complex, spec.cochain)).max(axis=1)
        coords = spec.cochain
    else:
        limit = HOLONOMY_TOL
        per_tri = _holonomy_residuals(spec.complex, spec.cochain)
        coords = spec.group.coords(spec.cochain)
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


def _holonomy_residuals(complex: SimplicialComplex, values: np.ndarray) -> np.ndarray:
    """The largest |entry| of the holonomy residual of every triangle."""
    return np.abs(holonomy_residual(complex, values)).max(axis=(1, 2))


# ---------------------------------------------------------------------------
# Equivariance


@dataclass
class EquivarianceReport:
    max_deviation: float
    checked_pairs: int

    def to_dict(self):
        return asdict(self)


def check_equivariance(spec: LieFoliationSpec) -> EquivarianceReport:
    """Verify D(deck_g . x) = h(g) . D(x) over the stored sample window: one
    stacked group product and one max over every (sample, generator) pair
    whose shifted point is stored too."""
    d = spec.complex.covering.d
    shifted = spec.window[:, None, :] + spec.complex.covering.m * np.eye(d, dtype=int)
    rows = spec.rows(shifted)
    sample, gen = np.nonzero(rows >= 0)
    if not sample.size:
        raise InputError("developing window too small for any equivariance pair")
    with np.errstate(over="ignore", invalid="ignore"):
        expect = spec.group.mul(spec.holonomy[gen], spec.developing[sample])
        dev = spec.group.dist(spec.developing[rows[sample, gen]], expect)
    return EquivarianceReport(float(np.max(dev)), int(sample.size))


# ---------------------------------------------------------------------------
# Constructors


def _at_lifts(complex: SimplicialComplex, developing: np.ndarray) -> np.ndarray:
    """developing, given over covering.window(), at both ends of every edge
    lift: that window holds z at row z_0 + 3m z_1 + (3m)^2 z_2."""
    side = WINDOW_COPIES * complex.covering.m
    return developing[complex.lifts @ side ** np.arange(complex.covering.d)]


def linear_torus_spec(m: int, rows: Sequence[Sequence[float]]) -> LieFoliationSpec:
    """Abelian R^k foliation on T^d with developing D(z) = A . z / m.

    rows is the k x d coefficient matrix A; holonomy of the axis-k deck
    generator is the k-th column of A.
    """
    k = len(rows)
    d = len(rows[0])
    complex = torus_complex(d, m)
    window, a = complex.covering.window(), np.array(rows, dtype=float)
    # a_0 dx_0 + ... + a_(d-1) dx_(d-1), in axis order from the first term
    values = coordinate_cochain(complex, 0).values[:, None] * a[:, 0]
    for ax in range(1, d):
        values = values + coordinate_cochain(complex, ax).values[:, None] * a[:, ax]
    samples = np.zeros((len(window), k))
    for ax in range(d):  # (0 + a_0 z_0 + ... + a_(d-1) z_(d-1)) / m, in axis order
        samples = samples + window[:, ax, None] * a[:, ax]
    return LieFoliationSpec(
        complex=complex,
        group=Rk(k),
        holonomy=a.T,
        window=window,
        developing=samples / m,
        cochain=values,
    )


def unipotent_torus_spec(n: int, m: int, coeffs: Sequence[float]) -> LieFoliationSpec:
    """SL(n) foliation on T^3, n >= 3, with developing map
    D(z) = I + ((a z0 + c z2)/m) E_(n-3, n-1) + (b z1/m) E_(n-2, n-1)
    (0-based) for coeffs (a, b, c).

    The two generators commute and square to zero, so D is a homomorphism
    of Z^3, the holonomy of deck generator k is D(m e_k), and the edge
    logarithm log(D(zu)^-1 D(zv)) is exactly D(zv) - D(zu).
    """
    a, b, c = coeffs
    complex = torus_complex(3, m)

    def develop(z):  # (N, 3) grid points -> (N, n, n)
        out = np.broadcast_to(np.eye(n), (len(z), n, n)).copy()
        out[:, n - 3, n - 1] = (a * z[:, 0] + c * z[:, 2]) / m
        out[:, n - 2, n - 1] = b * z[:, 1] / m
        return out

    window, lifts = complex.covering.window(), complex.lifts
    return LieFoliationSpec(
        complex=complex,
        group=SL(n),
        holonomy=develop(m * np.eye(3, dtype=int)),
        window=window,
        developing=develop(window),
        cochain=develop(lifts[:, 1]) - develop(lifts[:, 0]),
    )


def ga_suspension(m: int, hol: Sequence[float]) -> LieFoliationSpec:
    """GA foliation on a circle, suspended from one holonomy element, a row
    (a, b) such as a groups.GAElement; a not > 0 raises InputError.

    The developing map follows the one-parameter subgroup through hol, so the
    deck shift by m multiplies by hol on the left.
    """
    ha, hb = map(float, hol)
    require_ga(np.array([ha, hb]), "holonomy image {}".format)
    complex = torus_complex(1, m)
    window = complex.covering.window()
    t = window[:, 0] / m
    if abs(ha - 1.0) < 1e-14:  # the unipotent subgroup t -> (1, t b)
        a, b = np.ones_like(t), t * hb
    else:  # Python's a ** t: numpy's power differs from it in the last bit
        a = np.array([ha ** x for x in t.tolist()])
        b = hb * (a - 1.0) / (ha - 1.0)
    samples = np.stack([a, b], axis=-1)
    return LieFoliationSpec(
        complex=complex,
        group=GA(),
        holonomy=[(ha, hb)],
        window=window,
        developing=samples,
        cochain=edge_logarithms(complex, GA().matrix(_at_lifts(complex, samples))),
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
    window = complex.covering.window()
    x, y = window.T
    side = np.arange(WINDOW_COPIES * m)
    embed = GA().matrix(base.developing_value(side[:, None]))
    # the rotations [[c, -s], [s, c]] by 2 pi t / m, from math.cos and math.sin
    angles = [2.0 * math.pi * t / m for t in side.tolist()]
    cs = np.array([(math.cos(a), math.sin(a)) for a in angles])
    sigma = np.stack([cs * [1.0, -1.0], cs[:, ::-1]], axis=1)
    samples = embed[x] @ sigma[y]
    try:
        cochain = edge_logarithms(complex, _at_lifts(complex, samples))
    except LogDomain as exc:
        raise InputError(
            f"subdivision m={m} too coarse for edge logarithms "
            f"(rotation step 2*pi/{m}); use m >= 8"
        ) from exc
    spec = LieFoliationSpec(
        complex=complex,
        group=SL(2),
        holonomy=[GA().matrix(base.holonomy[0]), np.eye(2)],
        window=window,
        developing=samples,
        cochain=cochain,
    )
    # constructor contract: never emit a spec that fails the holonomy oracle,
    # the flatness verdict of check_mc
    if not np.all(_holonomy_residuals(complex, spec.cochain) <= HOLONOMY_TOL):
        raise CheckFailed("product foliation failed the flatness check")
    return spec


# ---------------------------------------------------------------------------
# Factor projection


def project_foliation(spec: LieFoliationSpec, which: int) -> LieFoliationSpec:
    """Project an SL(n) foliation onto one factor of the Iwasawa product.

    Factor 1 is the GA part (SL(2) only): R is the embedding of the GA row
    (exp(2 c_0), c_1 exp(2 c_0)) for the chart c.  Factor 2 is the R^2
    factor, the final two coordinates of the triangular-left vector chart:
    r_(n-3, n-1)/r_(n-3, n-3) and r_(n-2, n-1)/r_(n-2, n-2) for n >= 3.
    One iwasawa_sln_ank call charts the developing map on the lift grid
    [0, m]^d, which holds both ends of every edge lift, and the holonomy;
    window samples off that grid are not charted, and the projected spec
    has the grid as its window.  The projected R^2 cochain is rebuilt from
    chart differences of the developing map, one column per coordinate,
    and re-verified for closedness; a violation raises CheckFailed rather
    than propagating an unsound fibration input.

    Both R^2 coordinates are invariant under left translation by a
    diagonal matrix, so an SL(3) spec with diagonal holonomy projects to
    components that descend to the torus and no combination of them is a
    submersion: pipeline_sln correctly ends at "no submersive component
    combination found".
    """
    if which not in (1, 2):
        raise InputError("factor index must be 1 or 2")
    group = spec.group
    if not isinstance(group, SL):
        raise InputError(f"no product structure on group {group.tag}")
    if which == 1 and group != SL(2):
        raise InputError("factor 1 (GA part) is only defined for SL(2) specs")
    cover = spec.complex.covering
    side = cover.m + 1
    # the lift grid [0, m]^d, first coordinate fastest: z is row z . side^k
    grid = np.indices((side,) * cover.d).reshape(cover.d, -1).T[:, ::-1]
    _, charts = iwasawa_sln_ank(np.concatenate([spec.developing_value(grid), spec.holonomy]))
    if which == 1:  # the GA parts (a, b) = (exp(2 c_0), c_1 a)
        a = np.exp(2.0 * charts[:, 0])
        charts = np.stack([a, charts[:, 1] * a], axis=-1)
    at_grid, hol = charts[:len(grid)], charts[len(grid):]
    ends = at_grid[spec.complex.lifts @ side ** np.arange(cover.d)]
    if which == 1:
        return LieFoliationSpec(
            complex=spec.complex,
            group=GA(),
            holonomy=hol,
            window=grid,
            developing=at_grid,
            cochain=edge_logarithms(spec.complex, GA().matrix(ends)),
        )

    with np.errstate(over="ignore", invalid="ignore"):
        steps = ends[:, 1, -2:] - ends[:, 0, -2:]
    out = LieFoliationSpec(
        complex=spec.complex,
        group=Rk(2),
        holonomy=hol[:, -2:],
        window=grid,
        developing=at_grid[:, -2:],
        cochain=steps,
    )
    worst = max_coboundary(out.complex, out.cochain)
    if not worst <= RESIDUAL_TOL:
        raise CheckFailed(
            f"projected cochain is not closed: max coboundary {worst:.3e}"
        )
    return out
