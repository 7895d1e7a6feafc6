"""Constructive circle fibration from a closed 1-cochain.

Stages: perturb the periods of a closed cochain on the axis loops of the
torus to rationals by adding multiples of the coordinate cochains, their
dual basis (Tischler's construction; continued-fraction convergents keep
the perturbation within budget), integrate the scaled cochain along an axis
walk of the torus grid into a circle map, check the discrete no-singularity
condition per top simplex, and count fiber components at generic levels.
The census lifts the triangles once per run (census_frame); each level then
takes one stable sort to pair its crossings and numbers its nodes with no
sort, by a table linear in the crossings.

Cochains are float64 edge arrays and the circle map a float64 vertex array.
Only the rationalized periods are exact Fraction convergents; each period is
summed edge by edge in loop order, so reports reproduce to the last bit.

The end-to-end entry point runs the whole chain on an SL(n) (or abelian)
foliation spec: project to the R^2 factor, pick a submersive component, and
emit a deterministic report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (
    BudgetInfeasible,
    CheckFailed,
    InputError,
    NonGenericValue,
)
from .linalg import EQ_TOL, RESIDUAL_TOL
from .complexes import (
    ScalarCochain1,
    SimplicialComplex,
    coordinate_cochain,
    max_coboundary,
    period,
)
from .foliation import LieFoliationSpec, check_mc, project_foliation
from .groups import Rk, factor_split


@dataclass(frozen=True)
class RationalizeConfig:
    """Budget for the rational-period perturbation."""

    epsilon: float
    max_denominator: int = 10 ** 6

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InputError("epsilon must be positive")
        if self.max_denominator < 1:
            raise InputError("max_denominator must be >= 1")


def continued_fraction_approx(x: float, epsilon: float, max_denominator: int) -> Fraction:
    """First continued-fraction convergent of x within epsilon.

    Walks the convergents p_k/q_k in order of growing denominator and returns
    the first with |x - p/q| <= epsilon and q <= max_denominator.  Raises
    BudgetInfeasible when the denominator cap is hit first.
    """
    exact = Fraction(x).limit_denominator(10 ** 15)
    a, b = exact.numerator, exact.denominator
    # convergent recurrence h_k = a_k h_{k-1} + h_{k-2} on the CF terms of a/b
    p_prev, p = 0, 1
    q_prev, q = 1, 0
    best_err = math.inf
    while True:
        term, rem = divmod(a, b)
        p_prev, p = p, term * p + p_prev
        q_prev, q = q, term * q + q_prev
        if q > max_denominator:
            raise BudgetInfeasible(
                f"no convergent of {x} within {epsilon} under denominator cap "
                f"{max_denominator} (best error {best_err:.3e})"
            )
        cand = Fraction(p, q)
        err = abs(x - cand)
        best_err = min(best_err, err)
        if err <= epsilon:
            return cand
        if rem == 0:
            raise BudgetInfeasible(
                f"continued fraction of {x} terminated at error {err:.3e} > {epsilon}"
            )
        a, b = b, rem


@dataclass
class RationalizedCochain:
    """Closed cochain with rational periods on the axis loops."""

    cochain: ScalarCochain1
    periods: List[Fraction]
    q: int  # lcm of period denominators
    sup_change: float


def rationalize(w: ScalarCochain1, cfg: RationalizeConfig) -> RationalizedCochain:
    """Perturb each period to a nearby rational without breaking closedness.

    The period p_k of w on axis loop k is replaced by a continued-fraction
    convergent r_k, and (r_k - p_k) dx_k is added, one axis at a time: dx_k
    has period 1 on loop k and 0 on the others, and the correction is a sum
    of closed cochains, so closedness is preserved up to float rounding.  A
    cochain that is not closed within EQ_TOL, or a period that is not a
    finite float, raises InputError; a perturbation over epsilon in
    sup-norm (NaN included) raises BudgetInfeasible.
    """
    bad = max_coboundary(w)
    if not bad <= EQ_TOL:
        raise InputError(f"rationalize requires a closed cochain, coboundary {bad:.3e}")
    out = w
    periods: List[Fraction] = []
    for k in range(w.complex.covering.d):
        p = period(w, k)
        if not math.isfinite(p):
            raise InputError(f"period {k} of the cochain is not a finite number")
        r = continued_fraction_approx(p, cfg.epsilon, cfg.max_denominator)
        periods.append(r)
        delta = float(r) - p
        if delta != 0.0:
            out = out + coordinate_cochain(w.complex, k).scale(delta)
    q = math.lcm(*[r.denominator for r in periods])
    sup_change = float(np.max(np.abs(out.values - w.values)))
    if not sup_change <= cfg.epsilon:
        raise BudgetInfeasible(
            f"perturbation sup-norm {sup_change:.3e} exceeds epsilon {cfg.epsilon}"
        )
    return RationalizedCochain(out, periods, q, sup_change)


@dataclass
class CircleMap:
    """Vertex map into R/Z with integer periods on the axis loops."""

    complex: SimplicialComplex
    values: np.ndarray  # the image of each vertex, read-only (V,) float64
    periods: List[int]
    q: int


def integrate_to_circle(rz: RationalizedCochain) -> CircleMap:
    """Integrate q * w' along the axis-walk tree and reduce mod 1.

    The tree runs from vertex 0 along axis d-1, then along axis d-2, and
    along axis 0 last: f(c) sums q * w'(z, z + e_k) over k and t < c_k at
    z = (0, ..., 0, t, c_(k+1), ..., c_(d-1)), one cumulative sum per axis.
    q * w' has integer periods, so the sums descend to R/Z whatever the
    tree.  A sum that is not finite raises InputError, naming the lowest
    such vertex.  Edge increments must reproduce q * w' mod 1 within
    RESIDUAL_TOL, and the pullback periods must be integers.
    """
    w, q = rz.cochain, rz.q
    complex = w.complex
    d, m = complex.covering.d, complex.covering.m
    # steps[c_(d-1), ..., c_0, 2^a - 1] = w'(c, c + e_(d-1-a)), by the edge order
    steps = w.values.reshape((m,) * d + (2 ** d - 1,))
    grid = np.zeros((m,) * d)  # grid[c_(d-1), ..., c_0] = f(c): axis a is c_(d-1-a)
    for a in range(d):
        # the vertices with 0 on every axis after a, axis a last
        slab = (slice(None),) * (a + 1) + (0,) * (d - 1 - a)
        with np.errstate(over="ignore", invalid="ignore"):
            step = q * steps[slab + (2 ** a - 1,)][..., :-1]
            grid[slab] = np.cumsum(np.concatenate([grid[slab][..., :1], step], -1), -1)
    bad = np.flatnonzero(~np.isfinite(grid))
    if bad.size:
        raise InputError(f"circle map value at vertex {bad[0]} is not finite")
    values = grid.ravel() % 1.0
    values.flags.writeable = False

    periods = [q * r for r in rz.periods]
    for r, scaled in zip(rz.periods, periods):
        if scaled.denominator != 1:
            raise InputError(f"period {r} did not scale to an integer under q={q}")
    # edge increments must reproduce q * w' mod 1
    tail, head = complex.edges.T
    with np.errstate(over="ignore", invalid="ignore"):
        diff = (values[head] - values[tail] - float(q) * w.values) % 1.0
    diff = np.minimum(diff, 1.0 - diff)
    bad = np.flatnonzero(~(diff <= RESIDUAL_TOL * max(1.0, q)))
    if bad.size:
        u, v = complex.edges[bad[0]]
        raise CheckFailed(f"edge increment mismatch {diff[bad[0]]:.3e} on ({u},{v})")
    return CircleMap(complex, values, [int(p) for p in periods], q)


@dataclass
class SubmersionReport:
    failing_simplices: List[int]

    def passed(self) -> bool:
        return not self.failing_simplices

    def to_dict(self):
        return {
            "pass": self.passed(),
            "failing_simplices": self.failing_simplices,
        }


def check_submersion(w: ScalarCochain1) -> SubmersionReport:
    """No-singularity check: the cochain must be nonzero on some edge of
    every top-dimensional simplex (zero increments on single edges are fine,
    a whole simplex in a fiber is not)."""
    size = np.max(np.abs(w.values)[w.complex.top_edges], axis=1)
    return SubmersionReport(np.flatnonzero(~(size > EQ_TOL)).tolist())


@dataclass
class FiberCensus:
    value: float
    component_count: int
    crossing_edges: int


MAX_CROSSINGS = 1 << 22  # crossings that one census holds in memory


def _sweep(start, rise):
    """The ends, low then high, of the lifted interval from start to
    start + rise."""
    end = start + rise
    return np.minimum(start, end), np.maximum(start, end)


def _crossings(c: float, low, high):
    """Per open interval (low, high): the first integer k with c + k inside
    it, and how many such k there are."""
    first = np.floor(low - c) + 1
    return first, np.maximum(np.ceil(high - c) - first, 0)


@dataclass(frozen=True)
class CensusFrame:
    """The level-independent part of the fiber census of a circle map f.

    Each triangle (u, v, x) lifts its corners affinely from f(u) along
    (u, v) and (v, x) and sweeps (low, high).  Its edge slots join corners
    (0, 1), (1, 2) and (0, 2), and the stored edge (s, t) of each slot
    (slot_edge) runs the same way: its lift starts at the corner of s and
    sweeps (slot_low, slot_high), and offset is the integer rint(lift of
    s - f(s)).  The loose edges lie on no triangle; each lifts from f(s)
    along q * w(s, t) and sweeps (loose_low, loose_high).
    """

    f: CircleMap
    on_edge: np.ndarray  # triangles on each edge, (E,)
    slot_edge: np.ndarray  # (T, 3) edge indices
    offset: np.ndarray  # (T, 3) int64
    slot_low: np.ndarray  # (T, 3)
    slot_high: np.ndarray  # (T, 3)
    low: np.ndarray  # (T,)
    high: np.ndarray  # (T,)
    loose: np.ndarray  # edge indices
    loose_low: np.ndarray
    loose_high: np.ndarray


def census_frame(f: CircleMap, w: ScalarCochain1) -> CensusFrame:
    """Lift the triangles and loose edges of f's complex along q * w, once
    for every level of a census.  A lift that is not finite is kept: the
    census of each level refuses it by its crossing count."""
    complex = f.complex
    tri, slot_edge = complex.triangles, complex.triangle_edges[:, :, 0]
    on_edge = np.bincount(slot_edge.ravel(), minlength=len(complex.edges))
    loose = np.flatnonzero(on_edge == 0)
    with np.errstate(invalid="ignore", over="ignore"):
        step = float(f.q) * w.values
        lift = np.empty(tri.shape)
        lift[:, 0] = f.values[tri[:, 0]]
        lift[:, 1] = lift[:, 0] + step[slot_edge[:, 0]]
        lift[:, 2] = lift[:, 1] + step[slot_edge[:, 1]]
        start = lift[:, [0, 1, 0]]
        offset = np.rint(start - f.values[tri[:, [0, 1, 0]]]).astype(np.int64)
        low = lift.min(axis=1)
        return CensusFrame(
            f,
            on_edge,
            slot_edge,
            offset,
            *_sweep(start, lift[:, [1, 2, 2]] - start),
            *_sweep(low, lift.max(axis=1) - low),
            loose,
            *_sweep(f.values[complex.edges[loose, 0]], step[loose]),
        )


def _expand(first, count):
    """One row per crossing, intervals in flat order and k rising in each:
    the flat index of the interval, and k."""
    count = count.astype(np.int64).ravel()
    seg = np.repeat(np.arange(count.size), count)
    k = first.astype(np.int64).ravel() - (np.cumsum(count) - count)
    return seg, k[seg] + np.arange(seg.size)


def _pair_key(a, b):
    """One int64 per row of the int arrays a and b, equal where both are."""
    low = b.min(initial=0)
    return a * (b.max(initial=0) - low + 1) + (b - low)


def _number_nodes(edge, level, n_edges: int):
    """Number the distinct rows of the int arrays (edge, level) 0..n-1 in
    (edge, level) order, as np.unique numbers their _pair_key, without a
    sort: n, the number of each row, and the first row of each number.

    Each edge e gets a run of the table, one place per level from its
    lowest to its highest; a cumulative sum over the places taken numbers
    them.
    """
    low = np.full(n_edges, level.max(initial=0))
    np.minimum.at(low, edge, level)
    high = np.full(n_edges, level.min(initial=0) - 1)
    np.maximum.at(high, edge, level)
    run = np.maximum(high - low + 1, 0)  # 0 off the edges of the rows
    place = (np.cumsum(run) - run - low)[edge] + level
    taken = np.zeros(int(run.sum()), dtype=bool)
    taken[place] = True
    number = np.cumsum(taken)
    n = int(number[-1]) if number.size else 0
    node_of = number[place] - 1
    node_first = np.full(n, edge.size)
    np.minimum.at(node_first, node_of, np.arange(edge.size))
    return n, node_of, node_first


def _count_components(n: int, a, b) -> int:
    """Components of the graph on nodes 0..n-1 with edges (a[j], b[j]).

    Each round hooks the larger root of every edge under the smaller one,
    then jumps pointers until every node points at its root.
    """
    label = np.arange(n)
    while True:
        la, lb = label[a], label[b]
        apart = la != lb
        if not np.count_nonzero(apart):
            return int(np.count_nonzero(label == np.arange(n)))
        # every write lowers a root, whichever write wins on a repeated one
        la, lb = la[apart], lb[apart]
        label[np.maximum(la, lb)] = np.minimum(la, lb)
        while True:
            up = label[label]
            if not np.count_nonzero(up != label):
                break
            label = up


def fiber_census(frame: CensusFrame, value: float) -> FiberCensus:
    """Extract the level set of f at a generic value and count components.

    A node is a crossing of the level with an edge (s, t) of complex.edges,
    keyed by the edge index and the integer level with c + level crossed by
    the lift of (s, t) that starts at f(s).  Each edge slot of a triangle
    is crossed at every c + k strictly inside its lifted interval (see
    CensusFrame), at level k - offset.  The two crossings of each lifted
    level of a triangle are joined; edges in no triangle contribute
    isolated nodes.  Every node must be met once by each triangle on its
    edge, else CheckFailed.  More than MAX_CROSSINGS crossings, or a lift
    that is not finite, raise InputError.

    This is array code over the frame: the crossings of every slot of every
    triangle are expanded at once, paired by one stable sort of their
    (triangle, k) key, and their components counted by pointer jumping.
    The nodes are numbered without a sort, by one table per level with a
    run of places from each edge's lowest crossing level to its highest.
    The table is linear in the crossings.  A triangle lifts s to f(s) +
    offset within 1/2, so the crossings of its slot on (s, t), which rises
    by span, have c + level within 1/2 of f(s) or on the side of span and
    within 1/2 + |span|; the slot has at least |span| - 1 of them.  An edge
    with r crossings thus gets a run of at most 2r + 4 places, the table
    at most 6 places per crossing, and MAX_CROSSINGS bounds it as it bounds
    the crossings.
    """
    c = float(value) % 1.0
    complex = frame.f.complex
    with np.errstate(invalid="ignore", over="ignore"):
        hit = np.flatnonzero(np.abs((frame.f.values - c + 0.5) % 1.0 - 0.5) < 1e-9)
        if hit.size:
            raise NonGenericValue(f"level {c} hits the image of vertex {hit[0]}")
        # skip the triangles whose lifted range meets no level; a NaN count
        # stays, for the cap below to refuse
        crossed = np.flatnonzero(_crossings(c, frame.low, frame.high)[1] != 0)
        first, count = _crossings(c, frame.slot_low[crossed], frame.slot_high[crossed])
        loose_first, loose_count = _crossings(c, frame.loose_low, frame.loose_high)
        total = count.sum() + loose_count.sum()
        if not total <= MAX_CROSSINGS:
            raise InputError(
                f"level {c} has {total:.0f} edge crossings, "
                f"over the cap {MAX_CROSSINGS}"
            )

    # crossings ordered by (triangle, slot, k), then those of loose edges
    seg, k = _expand(first, count)
    loose_seg, loose_k = _expand(loose_first, loose_count)
    edge = np.concatenate([frame.slot_edge[crossed].ravel()[seg], frame.loose[loose_seg]])
    level = np.concatenate([k - frame.offset[crossed].ravel()[seg], loose_k])

    # a lifted level meets each triangle it crosses on exactly two edges
    level_in = _pair_key(seg // 3, k)
    order = np.argsort(level_in, kind="stable")
    key = level_in[order]
    if not (
        key.size % 2 == 0
        and np.array_equal(key[::2], key[1::2])
        and np.all(key[1:-1:2] != key[2::2])
    ):
        group = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
        size = np.diff(group, append=key.size)
        bad = np.flatnonzero(size != 2)
        g = bad[np.argmin(order[group[bad]])]
        j = order[group[g]]
        raise CheckFailed(
            f"level {c + int(k[j])} crosses {int(size[g])} edges of "
            f"triangle {tuple(complex.triangles[crossed[seg[j] // 3]].tolist())}"
        )

    n, node_of, node_first = _number_nodes(edge, level, len(complex.edges))
    degree = np.bincount(node_of[: seg.size], minlength=n)
    expect = frame.on_edge[edge[node_first]]
    wrong = np.flatnonzero(degree != expect)
    if wrong.size:
        j = node_first[wrong].min()
        raise CheckFailed(
            f"fiber at level {c} (lift index {int(level[j])}) meets edge "
            f"{tuple(complex.edges[edge[j]].tolist())} in {int(degree[node_of[j]])} of its "
            f"{int(expect[node_of[j]])} triangles"
        )

    pairs = node_of[order].reshape(-1, 2)
    return FiberCensus(c, _count_components(n, pairs[:, 0], pairs[:, 1]), n)


# ---------------------------------------------------------------------------
# End-to-end pipeline


@dataclass
class PipelineReport:
    """Ordered stage results; a failure stage terminates the report."""

    stages: List[dict] = field(default_factory=list)
    ok: bool = False

    def add(self, name: str, **payload):
        self.stages.append({"stage": name, **payload})

    def to_dict(self):
        return {"ok": self.ok, "stages": self.stages}


SEARCH_HEIGHT = 8  # rational-combination search bound for component selection


def _candidate_combinations(k: int):
    """Single components first, then small-height integer combinations."""
    for i in range(k):
        coeffs = [0] * k
        coeffs[i] = 1
        yield tuple(coeffs)
    if k == 2:
        for h in range(1, SEARCH_HEIGHT + 1):
            for a in range(-h, h + 1):
                for b in range(-h, h + 1):
                    if max(abs(a), abs(b)) == h and math.gcd(a, b) == 1:
                        if (a, b) not in ((1, 0), (0, 1)):
                            yield (a, b)


def _combine(cochains: Sequence[ScalarCochain1], coeffs) -> ScalarCochain1:
    out = cochains[0].scale(coeffs[0])
    for w, c in zip(cochains[1:], coeffs[1:]):
        out = out + w.scale(c)
    return out


def generic_levels(f: CircleMap, count: int = 10) -> List[float]:
    """Deterministic sample of levels avoiding all vertex images: a candidate
    within 1e-6 of round(x % 1.0, 12) for an image x is refused."""
    image = f.values % 1.0
    out = []
    i = 0
    while len(out) < count and i < 10 * count:
        cand = ((i + 0.5) / count + 0.261799) % 1.0
        i += 1
        # round moves an image by at most 5e-13: only gaps near 1e-6 need it
        gap = np.abs((cand - image + 0.5) % 1.0 - 0.5)
        near = np.flatnonzero(np.abs(gap - 1e-6) < 1e-11)
        exact = [round(x, 12) for x in image[near].tolist()]
        gap[near] = np.abs((cand - np.array(exact) + 0.5) % 1.0 - 0.5)
        if np.all(gap > 1e-6):
            out.append(round(cand, 12))
    if len(out) < count:
        raise NonGenericValue("could not find enough generic levels")
    return out


def fibration_ok(sub: SubmersionReport, censuses: Sequence[FiberCensus]) -> bool:
    """The verdict on a circle map: it passes the submersion check and its
    fibers have the same number of components at every level."""
    return sub.passed() and len({c.component_count for c in censuses}) == 1


def tischler_fibration(
    w: ScalarCochain1, cfg: RationalizeConfig
) -> Tuple[CircleMap, RationalizedCochain, SubmersionReport, List[FiberCensus]]:
    """Closed cochain -> circle map, with submersion check and fiber census."""
    rz = rationalize(w, cfg)
    cm = integrate_to_circle(rz)
    sub = check_submersion(rz.cochain)
    frame = census_frame(cm, rz.cochain)
    censuses = [fiber_census(frame, lvl) for lvl in generic_levels(cm)]
    return cm, rz, sub, censuses


def pipeline_sln(spec: LieFoliationSpec, cfg: RationalizeConfig) -> PipelineReport:
    """SL(n) (or abelian R^2) foliation spec -> circle fibration report.

    Stages: Maurer-Cartan check, projection onto the abelian R^2 factor,
    closedness verification, submersive component selection, rationalize,
    integrate, submersion re-check, fiber census.  Deterministic: identical
    spec and config produce identical reports.
    """
    report = PipelineReport()

    mc = check_mc(spec)
    report.add("maurer_cartan", **mc.to_dict())
    if not mc.flat:
        report.add("failure", reason="spec cochain is not flat")
        return report

    if spec.is_abelian():
        if spec.group != Rk(2):
            reason = f"abelian spec must be R2, got {spec.group.tag}"
            report.add("failure", reason=reason)
            return report
        projected = spec
        report.add("factor_split", kind="abelian-bypass", components=2)
    else:
        split = factor_split(spec.group.n)
        report.add(
            "factor_split",
            kind="iwasawa-chart",
            n=split.n,
            chart_length=split.chart_len,
            g2_coords=list(split.g2_coords),
        )
        try:
            projected = project_foliation(spec, 2)
        except CheckFailed as e:
            report.add("failure", reason=str(e))
            return report

    closed_res = float(np.max([max_coboundary(w) for w in projected.scalar_cochains]))
    report.add("closedness", max_coboundary=closed_res)
    if not closed_res <= RESIDUAL_TOL:
        report.add("failure", reason="projected components are not closed")
        return report

    chosen = None
    tried = []
    for coeffs in _candidate_combinations(len(projected.scalar_cochains)):
        cand = _combine(projected.scalar_cochains, coeffs)
        tried.append(list(coeffs))
        if check_submersion(cand).passed():
            chosen = (coeffs, cand)
            break
    if chosen is None:
        report.add(
            "failure",
            reason="no submersive component combination found",
            tried=tried,
        )
        return report
    coeffs, w = chosen
    report.add("component_selection", coefficients=list(coeffs))

    try:
        cm, rz, sub, censuses = tischler_fibration(w, cfg)
    except (BudgetInfeasible, InputError) as e:
        report.add("failure", reason=str(e))
        return report
    report.add(
        "rationalize",
        periods=[str(r) for r in rz.periods],
        q=rz.q,
        sup_change=rz.sup_change,
        epsilon=cfg.epsilon,
    )
    report.add(
        "circle_map",
        q=cm.q,
        pullback_periods=cm.periods,
    )
    report.add("submersion", **sub.to_dict())
    if not sub.passed():
        report.add("failure", reason="rationalized cochain fails submersion")
        return report
    counts = [c.component_count for c in censuses]
    report.add(
        "fiber_census",
        levels=[c.value for c in censuses],
        components=counts,
        constant=len(set(counts)) == 1,
    )
    report.ok = fibration_ok(sub, censuses)
    return report
