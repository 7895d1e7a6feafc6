"""Constructive circle fibration from a closed 1-cochain.

Stages: perturb the periods of a closed cochain on the axis loops of the
torus to rationals by adding multiples of the coordinate cochains, their
dual basis (Tischler's construction; the rationals share the least common
denominator q that keeps every period within budget, so the scaled map
winds as little as the budget allows), integrate the scaled cochain along
an axis walk of the torus grid into a circle map, check the discrete
no-singularity condition per top simplex, and count fiber components at
ten fixed levels.
The circle map holds its exact integer lift and its census slots, built
and checked once where the map is made (CircleMap.lift): a height in [0,
N) per vertex and an int64 wrap per edge, closed on every triangle, so a
map that does not lift is refused there.  Each triangle keeps its long
edge slot, from its lowest lifted corner to its highest, apart from its
two short slots, and the census of each level reads them from the map.
Each level is a half-integer height, which no corner can hit, so every
value is a regular level and the census reads the same ten, LEVELS, on
every map.  A level numbers its nodes by one cumulative sum of the
crossings per edge, pairs them along the long slots, with no sort, and
counts the components by round contraction.

Cochains are float64 edge arrays, and the circle map a float64 vertex array
in [0, 1) beside its int64 heights and wraps.  Only the rationalized periods
are exact Fractions; each period is summed edge by edge in loop order, so
reports reproduce to the last bit.

The end-to-end entry point runs the whole chain on an SL(n) (or abelian)
foliation spec: project to the R^2 factor, pick a submersive component, and
emit a deterministic report.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .errors import BudgetInfeasible, CheckFailed, InputError
from .linalg import EQ_TOL, RESIDUAL_TOL
from .complexes import (
    ScalarCochain1,
    SimplicialComplex,
    coordinate_cochain,
    max_coboundary,
    period,
)
from .foliation import LieFoliationSpec, check_mc, project_foliation
from .groups import Rk, chart_length


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


SCAN_LIMIT = 1 << 20  # largest common denominator that rationalize scans
SCAN_BLOCK = 4096  # denominators per numpy block of the scan


def _least_common_denominator(periods: List[float], epsilon: float, top: int):
    """The least q <= top with |p - round(q p)/q| <= epsilon for every period
    p, and those rationals, in exact Fraction arithmetic on the float
    periods (round is half to even); None if no q <= top qualifies.

    A numpy prefilter scans q in blocks over the fractional parts fmod(p,
    1), which are exact and below 1 in size, so q * fmod(p, 1) stays below
    q and cannot overflow.  It widens the bound by q 2^-52, past the
    rounding of q * fmod(p, 1) (epsilon < 1/2 whenever top >= 2), so it can
    only over-accept; each candidate is then confirmed exactly, in
    increasing q.
    """
    frac = np.fmod(periods, 1.0)
    exact = [Fraction(p) for p in periods]
    for start in range(1, top + 1, SCAN_BLOCK):
        q = np.arange(start, min(start + SCAN_BLOCK, top + 1), dtype=np.float64)[:, None]
        x = q * frac
        near = (np.abs(x - np.rint(x)) <= q * (epsilon + 2.0 ** -52)).all(axis=1)
        for i in np.flatnonzero(near).tolist():
            rs = [Fraction(round((start + i) * e), start + i) for e in exact]
            if all(abs(e - r) <= epsilon for e, r in zip(exact, rs)):
                return rs
    return None


def rationalize(w: ScalarCochain1, cfg: RationalizeConfig) -> RationalizedCochain:
    """Perturb the periods to nearby rationals with the least common
    denominator, without breaking closedness.

    Each period p_k of w on axis loop k first gets its continued-fraction
    convergent within epsilon; q_L, the lcm of their denominators, is a
    common denominator that keeps every period within epsilon.  The periods
    then move to r_k = round(q p_k)/q for the least q < q_L with |p_k - r_k|
    <= epsilon for every k (_least_common_denominator), and keep their
    convergents if there is none.  Every q >= 1/(2 epsilon) qualifies, so
    the scan stops at min(q_L - 1, ceil(1/(2 epsilon)), SCAN_LIMIT); q never
    grows past q_L.  Then (r_k - p_k) dx_k is added, one axis at a time:
    dx_k has period 1 on loop k and 0 on the others, and the correction is
    a sum of closed cochains, so closedness is preserved up to float
    rounding.  A cochain that is not closed within EQ_TOL, or a period that
    is not a finite float, raises InputError; a period without a convergent
    within epsilon, or a perturbation over epsilon in sup-norm (NaN
    included), raises BudgetInfeasible.
    """
    bad = max_coboundary(w.complex, w.values)
    if not bad <= EQ_TOL:
        raise InputError(f"rationalize requires a closed cochain, coboundary {bad:.3e}")
    raw: List[float] = []
    periods: List[Fraction] = []
    for k in range(w.complex.covering.d):
        p = period(w, k)
        if not math.isfinite(p):
            raise InputError(f"period {k} of the cochain is not a finite number")
        raw.append(p)
        periods.append(continued_fraction_approx(p, cfg.epsilon, cfg.max_denominator))
    enough = 1 if math.isinf(cfg.epsilon) else math.ceil(1 / (2 * Fraction(cfg.epsilon)))
    top = min(math.lcm(*[r.denominator for r in periods]) - 1, enough, SCAN_LIMIT)
    periods = _least_common_denominator(raw, cfg.epsilon, top) or periods
    out = w
    for k, (p, r) in enumerate(zip(raw, periods)):
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


HEIGHT_BITS = 30
HEIGHT_SCALE = 1 << HEIGHT_BITS  # N: integer heights per turn of the circle
MAX_WRAPS = 1 << 31  # bound on |wrap| that keeps every lifted corner in int64


@dataclass
class CircleMap:
    """Vertex map f into R/Z with integer periods on the axis loops, held
    with its exact integer lift and the level-independent part of its fiber
    census (build it with CircleMap.lift).

    Each vertex v has its image values[v] in [0, 1) and height H(v) =
    floor(N values[v]) in [0, N), N = HEIGHT_SCALE, and each edge (s, t)
    the wrap k = rint(q w(s, t) - (f(t) - f(s))) for the cochain w that f
    integrates.  Edge (s, t) rises from H(s) by H(t) - H(s) + N k, with
    ends (low, high); the rises close on every triangle and add up to N
    periods[a] around axis loop a.

    Each triangle (u, v, x) lifts its corners from H(u) along (u, v) and
    (v, x); the rises close, so its slot (u, x) ends where (v, x) does.
    The triangle arrays are (3, T), one contiguous row per role: corner
    holds the lowest, middle and highest lifted corner, and slot_edge the
    edge of the long slot, from the lowest corner to the highest, then of
    the short slot from the lowest corner to the middle one and of the
    short slot from the middle corner to the highest.  Each slot is the
    lift of its edge moved up by N * offset.  weight counts the slots on
    each edge, 1 for a loose edge, which lies on no triangle: a level's
    crossings of one edge count weight times against MAX_CROSSINGS.
    Every array is read-only."""

    complex: SimplicialComplex
    values: np.ndarray  # (V,) float64 in [0, 1)
    heights: np.ndarray  # (V,) int64 in [0, N)
    wraps: np.ndarray  # (E,) int64
    periods: List[int]
    q: int
    low: np.ndarray  # (E,) int64
    high: np.ndarray  # (E,) int64
    weight: np.ndarray  # (E,) int64
    corner: np.ndarray  # (3, T) int64
    slot_edge: np.ndarray  # (3, T) edge indices
    offset: np.ndarray  # (3, T) int64

    @classmethod
    def lift(cls, w: ScalarCochain1, values, periods: List[int], q: int) -> "CircleMap":
        """The map with the given vertex values mod 1 that integrates q * w,
        checked once, in this order: a value that is not finite raises
        InputError, naming the lowest such vertex; a residual |q w(s, t) -
        (f(t) - f(s)) - k| over RESIDUAL_TOL * max(1, q), NaN included,
        CheckFailed, naming the first such edge; a wrap of MAX_WRAPS or more
        InputError, naming the edge; a triangle whose rises do not close
        CheckFailed, naming the triangle.  The census slots are read off
        the rises of the triangles, gathered once."""
        complex = w.complex
        with np.errstate(invalid="ignore"):
            values = np.asarray(values, dtype=np.float64) % 1.0  # inf becomes NaN
        # a tiny negative value reduces to 1.0, which is 0 on the circle
        values[values == 1.0] = 0.0
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise InputError(f"circle map value at vertex {bad[0]} is not finite")
        tail, head = complex.edges.T
        with np.errstate(over="ignore", invalid="ignore"):
            rise = float(q) * w.values - (values[head] - values[tail])
            wraps = np.rint(rise)
            residual = np.abs(rise - wraps)
        bad = np.flatnonzero(~(residual <= RESIDUAL_TOL * max(1.0, q)))
        if bad.size:
            u, v = complex.edges[bad[0]]
            raise CheckFailed(f"edge increment mismatch {residual[bad[0]]:.3e} on ({u},{v})")
        del rise, residual  # the float temporaries, freed ahead of the slot build
        bad = np.flatnonzero(np.abs(wraps) >= MAX_WRAPS)
        if bad.size:
            u, v = complex.edges[bad[0]]
            raise InputError(
                f"circle map wraps {wraps[bad[0]]:.0f} times on edge ({u},{v}), "
                f"beyond the integer height range"
            )
        wraps = wraps.astype(np.int64)
        heights = np.floor(values * HEIGHT_SCALE).astype(np.int64)
        start, end = heights[tail], heights[head] + HEIGHT_SCALE * wraps
        low, high = np.minimum(start, end), np.maximum(start, end)
        # |rise| < N MAX_WRAPS = 2^61, so the sums below cannot overflow and
        # the heights cancel exactly: a triangle's rises close as its wraps do
        tri, slot_edge = complex.triangles, complex.triangle_edges
        rises = (end - start)[slot_edge]  # (T, 3), by slot
        del start, end
        uv, vx, ux = rises.T
        bad = np.flatnonzero(uv + vx != ux)
        if bad.size:
            raise CheckFailed(
                "circle map lift does not close on triangle "
                f"{tuple(tri[bad[0]].tolist())}"
            )
        lift = np.empty(tri.shape, dtype=np.int64)
        lift[:, 0] = heights[tri[:, 0]]
        lift[:, 1] = lift[:, 0] + uv
        lift[:, 2] = lift[:, 1] + vx
        del rises, uv, vx, ux
        # the slot without corner x is slot (x + 1) % 3: the long slot lacks
        # the middle corner, the low short slot the highest, the high one the
        # lowest
        corner = np.argsort(lift, axis=1, kind="stable").T
        role = (corner[[1, 2, 0]] + 1) % 3
        # (3, T) flat indices into the (T, 3) arrays
        row = 3 * np.arange(len(tri))
        slots = (
            low,
            high,
            np.maximum(np.bincount(slot_edge.ravel(), minlength=len(complex.edges)), 1),
            np.take(lift, corner + row),
            np.take(slot_edge, role + row),
            # slot (v, x) starts at corner 1, N * wrap(u, v) above H(v)
            np.where(role == 1, wraps[slot_edge[:, 0]], 0),
        )
        for a in (values, heights, wraps) + slots:
            a.flags.writeable = False
        return cls(complex, values, heights, wraps, periods, q, *slots)


def integrate_to_circle(rz: RationalizedCochain) -> CircleMap:
    """Integrate q * w' along the axis-walk tree into a circle map.

    The tree runs from vertex 0 along axis d-1, then along axis d-2, and
    along axis 0 last: f(c) sums q * w'(z, z + e_k) over k and t < c_k at
    z = (0, ..., 0, t, c_(k+1), ..., c_(d-1)), one cumulative sum per axis.
    q * w' has integer periods, so the sums descend to R/Z whatever the
    tree.  The pullback periods must be integers (InputError); CircleMap.lift
    reduces the sums mod 1, lifts them along q * w' and checks the map.
    """
    w, q = rz.cochain, rz.q
    d, m = w.complex.covering.d, w.complex.covering.m
    periods = [q * r for r in rz.periods]
    for r, scaled in zip(rz.periods, periods):
        if scaled.denominator != 1:
            raise InputError(f"period {r} did not scale to an integer under q={q}")
    # steps[c_(d-1), ..., c_0, 2^a - 1] = w'(c, c + e_(d-1-a)), by the edge order
    steps = w.values.reshape((m,) * d + (2 ** d - 1,))
    grid = np.zeros((m,) * d)  # grid[c_(d-1), ..., c_0] = f(c): axis a is c_(d-1-a)
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(d):
            # the vertices with 0 on every axis after a, axis a last
            slab = (slice(None),) * (a + 1) + (0,) * (d - 1 - a)
            step = q * steps[slab + (2 ** a - 1,)][..., :-1]
            grid[slab] = np.cumsum(np.concatenate([grid[slab][..., :1], step], -1), -1)
    return CircleMap.lift(w, grid.ravel(), [int(p) for p in periods], q)


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
    a whole simplex in a fiber is not).  A max over the columns of
    top_edges: along rows of 2 to 6 it costs several times as much."""
    size = np.abs(w.values)  # the max over columns keeps a NaN, which fails
    size = functools.reduce(np.maximum, (size[at] for at in w.complex.top_edges.T))
    return SubmersionReport(np.flatnonzero(~(size > EQ_TOL)).tolist())


@dataclass
class FiberCensus:
    value: float
    component_count: int
    crossing_edges: int


MAX_CROSSINGS = 1 << 22  # crossings that one census level accepts


def _number_crossings(low, high, top: int):
    """Number the crossings of the levels top - 1/2 + j N with the open
    intervals (low[e], high[e]) of integer heights, low <= high.

    Interval e crosses the j with (low[e] - top) // N < j <= (high[e] -
    top) // N, a shift by HEIGHT_BITS.  The nodes are numbered in (e, j)
    order, as np.unique numbers the distinct (e, j) rows, by one cumulative
    sum of the counts: crossing j of interval e is node base[e] + j.
    Returns the counts and base.
    """
    below = low - top
    below >>= HEIGHT_BITS
    above = high - top
    above >>= HEIGHT_BITS
    count = above - below
    base = np.cumsum(count)
    base -= above
    base -= 1
    return count, base


def _runs(a, b, length):
    """The rows (a[j] + i, b[j] + i) for i = 0, ..., length[j] - 1, run by
    run; a length may be 0."""
    back = np.cumsum(length) - length
    i = np.arange(int(length.sum()))
    return np.repeat(a - back, length) + i, np.repeat(b - back, length) + i


def _count_components(n: int, lo, hi) -> int:
    """Components of the graph on nodes 0..n-1 with edges (lo[j], hi[j]),
    where lo[j] < hi[j].

    Round contraction: each round hooks the high end of every edge under
    its low end, jumps pointers until every node points at its root, then
    numbers the roots 0..n'-1 in order and keeps the edges that still join
    two roots, low end first.  Every write lowers a parent, whichever write
    wins on a repeated node, so a node is a root exactly when no edge hooks
    it.  Each round after the first runs on the roots of the one before,
    typically a few times fewer nodes, and the rounds end when no edge is
    left; each surviving root is then one component.
    """
    while True:
        parent = np.arange(n)
        parent[hi] = lo
        root = np.ones(n, dtype=bool)
        root[hi] = False
        # jump twice per test; once the second jump changes nothing, every
        # node points at its root
        while True:
            parent = parent[parent]
            up = parent[parent]
            if not np.count_nonzero(up != parent):
                break
            parent = up
        lo, hi = parent[lo], parent[hi]
        apart = lo != hi
        if not np.count_nonzero(apart):
            return int(np.count_nonzero(root))
        # parent, no longer needed, maps each root to its new number
        root = np.flatnonzero(root)
        n = root.size
        parent[root] = np.arange(n)
        lo, hi = parent[lo[apart]], parent[hi[apart]]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)


def fiber_census(f: CircleMap, value: float) -> FiberCensus:
    """Extract the level set of f at a value c and count components.

    The level is the half-integer height floor(c N) + 1/2, with N =
    HEIGHT_SCALE, and its lifts by j N, so no height can hit it: a value on
    a vertex image counts the level just above it.  A node is a crossing of
    a level with an edge, keyed by the edge index and the j of the level
    crossed by the edge's lift (see CircleMap).  The two crossings of
    each lifted level of a triangle are joined; loose edges contribute
    isolated nodes.  More than MAX_CROSSINGS slot and loose-edge crossings
    raise InputError before any crossing is expanded.

    This is array code over the census slots of f, with no sort.  One
    cumulative sum of the crossings per edge numbers the nodes
    (_number_crossings); a slot crosses the levels of its edge moved by its
    offset.  The long slot of a triangle crosses each of its lifted levels,
    the low short slot the first of them and the high short slot the rest,
    so the pairs are two runs per crossed triangle, each ordered once, low
    node first, before it is expanded (_runs).  Round contraction
    (_count_components) counts the components.  Beside one row per pair,
    which MAX_CROSSINGS bounds, a level holds arrays no larger than the
    map's (3, T) and (E,) ones.
    """
    c = float(value) % 1.0
    top = math.floor(c * HEIGHT_SCALE) + 1  # the lowest height above level c
    count, base = _number_crossings(f.low, f.high, top)
    total = int(f.weight @ count)
    if total > MAX_CROSSINGS:
        raise InputError(
            f"level {c} has {total} edge crossings, over the cap {MAX_CROSSINGS}"
        )
    below = f.corner - top
    below >>= HEIGHT_BITS
    crossed = np.flatnonzero(below[0] != below[2])
    below = np.take(below, crossed, 1)
    node = base[np.take(f.slot_edge, crossed, 1)] - np.take(f.offset, crossed, 1)
    # the long slot crosses j = below[0] + 1, ..., below[2]: with the low
    # short slot up to below[1], with the high short slot after it; a run's
    # pairs (a + i, b + i) all have the order of (a, b), and a and b lie on
    # two edges of one triangle, so they differ
    first = below[:2] + 1
    a, b = node[0] + first, node[1:] + first
    lo, hi = _runs(
        np.minimum(a, b).ravel(), np.maximum(a, b).ravel(), np.diff(below, axis=0).ravel()
    )
    n = int(count.sum())
    return FiberCensus(c, _count_components(n, lo, hi), n)


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


# fixed, since every value c is a regular level: no vertex has height floor(c N) + 1/2
LEVELS = tuple(round(((i + 0.5) / 10 + 0.261799) % 1.0, 12) for i in range(10))


def fibration_ok(sub: SubmersionReport, censuses: Sequence[FiberCensus]) -> bool:
    """The verdict on a circle map: it passes the submersion check and its
    fibers have the same number of components at every level."""
    return sub.passed() and len({c.component_count for c in censuses}) == 1


def tischler_fibration(
    w: ScalarCochain1, cfg: RationalizeConfig
) -> Tuple[CircleMap, RationalizedCochain, SubmersionReport, List[FiberCensus]]:
    """Closed cochain -> circle map, with submersion check and fiber census
    at LEVELS."""
    rz = rationalize(w, cfg)
    cm = integrate_to_circle(rz)
    sub = check_submersion(rz.cochain)
    censuses = [fiber_census(cm, lvl) for lvl in LEVELS]
    return cm, rz, sub, censuses


def pipeline_sln(spec: LieFoliationSpec, cfg: RationalizeConfig) -> PipelineReport:
    """SL(n) (or abelian R^2) foliation spec -> circle fibration report.

    Stages: Maurer-Cartan check, projection onto the abelian R^2 factor,
    closedness residual, submersive component selection, rationalize,
    integrate, submersion re-check, fiber census.  Deterministic: identical
    spec and config produce identical reports.
    """
    report = PipelineReport()

    mc = check_mc(spec)
    report.add("maurer_cartan", **mc.to_dict())
    if not mc.flat:
        report.add("failure", reason="spec cochain is not flat")
        return report

    if isinstance(spec.group, Rk):
        if spec.group != Rk(2):
            reason = f"abelian spec must be R2, got {spec.group.tag}"
            report.add("failure", reason=reason)
            return report
        projected = spec
        report.add("factor_split", kind="abelian-bypass", components=2)
    else:
        length = chart_length(spec.group.n)
        report.add(
            "factor_split",
            kind="iwasawa-chart",
            n=spec.group.n,
            chart_length=length,
            g2_coords=[length - 2, length - 1],
        )
        try:
            projected = project_foliation(spec, 2)
        except CheckFailed as e:
            report.add("failure", reason=str(e))
            return report

    closed_res = max_coboundary(projected.complex, projected.cochain)
    # check_mc has bounded it by EQ_TOL on an R^2 spec, and project_foliation
    # has refused it over RESIDUAL_TOL on an SL(n) one
    report.add("closedness", max_coboundary=closed_res)

    chosen = None
    tried = []
    columns = projected.cochain.T
    for coeffs in _candidate_combinations(len(columns)):
        # the columns summed in coefficient order from the first term (a
        # sum from 0 turns -0.0 into +0.0); a non-finite component makes
        # inf or NaN values, left to the checks that follow
        with np.errstate(over="ignore", invalid="ignore"):
            values = columns[0] * coeffs[0]
            for x, c in zip(columns[1:], coeffs[1:]):
                values = values + x * c
        cand = ScalarCochain1(projected.complex, values)
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
    # the submersion passed, so the verdict is the census agreement
    report.ok = fibration_ok(sub, censuses)
    report.add(
        "fiber_census",
        levels=[c.value for c in censuses],
        components=[c.component_count for c in censuses],
        constant=report.ok,
    )
    return report
