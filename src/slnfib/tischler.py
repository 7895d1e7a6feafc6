"""Constructive circle fibration from a closed 1-cochain.

Stages: perturb the periods of a closed cochain on the axis loops of the
torus to rationals by adding multiples of the coordinate cochains, their
dual basis (Tischler's construction; continued-fraction convergents keep
the perturbation within budget), integrate the scaled cochain along an axis
walk of the torus grid into a circle map, check the discrete no-singularity
condition per top simplex, and count fiber components at generic levels.
The census lifts the triangles once per run (census_frame), with each
triangle's long edge slot, from its lowest lifted corner to its highest,
held apart from its two short slots.  Each level then pairs its crossings
along the long slots, numbers its nodes by one run of levels per edge,
with no sort, and counts the components by round contraction.

Cochains are float64 edge arrays and the circle map a float64 vertex array.
Only the rationalized periods are exact Fraction convergents; each period is
summed edge by edge in loop order, so reports reproduce to the last bit.

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
    bad = max_coboundary(w.complex, w.values)
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


def _sweep(start, rise):
    """The ends, low then high, of the lifted interval from start to
    start + rise."""
    end = start + rise
    return np.minimum(start, end), np.maximum(start, end)


def _crossings(c: float, low, high):
    """Per open interval (low, high): the first integer k with c + k inside
    it, and how many such k there are."""
    first = low - c
    np.floor(first, out=first)
    first += 1
    count = high - c
    np.ceil(count, out=count)
    count -= first
    return first, np.maximum(count, 0, out=count)


@dataclass(frozen=True)
class CensusFrame:
    """The level-independent part of the fiber census of a circle map f.

    Each triangle (u, v, x) lifts its corners affinely from f(u) along
    (u, v) and (v, x) and sweeps (low, high).  Its edge slots join corners
    (0, 1), (1, 2) and (0, 2), and the stored edge (s, t) of each slot
    (slot_edge) runs the same way: its lift starts at the corner of s and
    sweeps (slot_low, slot_high), and offset is the integer rint(lift of
    s - f(s)).  The slot arrays are (3, T), one contiguous row per role:
    row 0 holds the long slot, from the lowest lifted corner to the
    highest, row 1 the short slot from the lowest corner to the middle one
    and row 2 the short slot from the middle corner to the highest, and
    slot gives the position (0, 1 or 2) of each in the triangle.  A sweep
    can differ from its corners in the last bit, so the census of each
    level checks the roles.  The loose edges lie on no triangle; each
    lifts from f(s) along q * w(s, t) and sweeps (loose_low, loose_high).
    """

    f: CircleMap
    on_edge: np.ndarray  # triangles on each edge, (E,)
    slot: np.ndarray  # (3, T) int8 triangle slot positions
    slot_edge: np.ndarray  # (3, T) edge indices
    offset: np.ndarray  # (3, T) int64
    slot_low: np.ndarray  # (3, T)
    slot_high: np.ndarray  # (3, T)
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
    tri, slot_edge = complex.triangles, complex.triangle_edges
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
        # the slot without corner x is slot (x + 1) % 3: the long slot lacks
        # the middle corner, the low short slot the highest, the high one
        # the lowest
        corner = np.argsort(lift, axis=1, kind="stable")
        role = (corner[:, [1, 2, 0]] + 1) % 3
        # (3, T): the flat index into a (T, 3) slot array of each role
        at = (role + 3 * np.arange(len(tri))[:, None]).T
        # over the corner columns: a reduction along rows of 3 costs ten
        # times as much
        low = np.minimum(np.minimum(lift[:, 0], lift[:, 1]), lift[:, 2])
        high = np.maximum(np.maximum(lift[:, 0], lift[:, 1]), lift[:, 2])
        return CensusFrame(
            f,
            on_edge,
            np.ascontiguousarray(role.T, dtype=np.int8),
            np.take(slot_edge, at),
            np.take(offset, at),
            *(np.take(a, at) for a in _sweep(start, lift[:, [1, 2, 2]] - start)),
            *_sweep(low, high - low),
            loose,
            *_sweep(f.values[complex.edges[loose, 0]], step[loose]),
        )


def _number_runs(edge, first, count, on_edge):
    """Number the nodes crossed by slots that each cross one run of levels.

    Slot j crosses edge[j] at the levels first[j], ..., first[j] + count[j]
    - 1, with count[j] >= 1.  Each edge takes the run of one of its slots;
    the slots agree when every slot on an edge carries that run and each of
    the on_edge[e] triangles on edge e has a slot there.  Then the nodes
    are numbered in (edge, level) order, as np.unique numbers the distinct
    (edge, level) rows, by one cumulative sum of the run lengths.  Returns
    the number of nodes, the node of each slot's first crossing, and
    whether the slots agree.
    """
    run = np.zeros(on_edge.size, dtype=np.int64)
    run[edge] = count
    run_first = np.empty_like(run)  # read only where written
    run_first[edge] = first
    # a triangle has each edge once, so an edge with fewer slots than
    # triangles lowers the sum of its slots' runs below on_edge * run
    agree = (
        np.array_equal(run[edge], count)
        and np.array_equal(run_first[edge], first)
        and int(on_edge @ run) == int(count.sum())
    )
    end = np.cumsum(run)
    return int(end[-1]) if end.size else 0, end[edge] - count, agree


def _runs(a, b, length):
    """The rows (a[j] + i, b[j] + i) for i = 0, ..., length[j] - 1, run by
    run; every length is at least 1."""
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


def _realign(frame: CensusFrame, c: float, odd, first, count, slot):
    """Judge the crossed triangles odd, which fail the alignment test, by
    the exact rule: each lifted level crosses 0 or 2 of a triangle's edges
    exactly when the slot with the most crossings is tiled by the other
    two.  Make that slot the long one (row 0) of first, count and slot, in
    place; raise CheckFailed for the first triangle that breaks the rule,
    naming its first such level in (slot, k) order."""
    perm = (np.argmax(count[:, odd], axis=0) + np.arange(3)[:, None]) % 3
    f, n = (np.take_along_axis(a[:, odd], perm, 0) for a in (first, count))

    def starts(x, at):  # short slot x is empty or starts at level at
        return (n[x] == 0) | (f[x] == at)

    tiles = (n[1] + n[2] == n[0]) & (
        starts(1, f[0]) & starts(2, f[0] + n[1]) | starts(2, f[0]) & starts(1, f[0] + n[2])
    )
    bad = np.flatnonzero(~tiles)
    if bad.size:
        j = odd[bad[0]]
        t = slot[0, j] % frame.low.size
        order = frame.slot.ravel()[slot[:, j]]
        k = np.concatenate(
            [np.arange(first[r, j], first[r, j] + count[r, j]) for r in np.argsort(order)]
        )
        level, at, size = np.unique(k, return_index=True, return_counts=True)
        g = np.flatnonzero(size != 2)
        g = g[np.argmin(at[g])]
        raise CheckFailed(
            f"level {c + int(level[g])} crosses {int(size[g])} edges of "
            f"triangle {tuple(frame.f.complex.triangles[t].tolist())}"
        )
    for a in (first, count, slot):
        a[:, odd] = np.take_along_axis(a[:, odd], perm, 0)


def _degree_refusal(frame: CensusFrame, c: float, slot, edge, first, count, offset):
    """The CheckFailed for the first crossing, in (triangle, slot, k)
    order, whose node (edge, level) is not met once by each triangle on its
    edge; the frame slot slot[j] (a flat (3, T) index) crosses edge[j] at
    the lifted levels first[j], ..., first[j] + count[j] - 1."""
    complex = frame.f.complex
    seg = np.repeat(np.arange(count.size), count)
    k = first[seg] + np.arange(seg.size) - (np.cumsum(count) - count)[seg]
    rows = np.stack([edge[seg], k - offset[seg]], axis=1)
    _, node, degree = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    degree = degree[node.ravel()]
    wrong = np.flatnonzero(degree != frame.on_edge[rows[:, 0]])
    t, position = slot[seg] % frame.low.size, frame.slot.ravel()[slot[seg]]
    j = wrong[np.lexsort((k[wrong], position[wrong], t[wrong]))[0]]
    e, level = rows[j]
    return CheckFailed(
        f"fiber at level {c} (lift index {int(level)}) meets edge "
        f"{tuple(complex.edges[e].tolist())} in {int(degree[j])} of its "
        f"{int(frame.on_edge[e])} triangles"
    )


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

    This is array code over the frame, with no sort.  Each level takes
    the crossed triangles and their (3, T) slot rows.  The long slot of a
    triangle is crossed at each of its lifted levels k, and each such k is
    crossed once more on exactly one short slot, so the rule that each k
    crosses 0 or 2 edges is a range test per triangle: the low short slot
    starts at the long slot's first k and the high one right after it.  A
    triangle that fails it is judged by the exact rule (_realign) before
    anything is refused.  The pairs are then read off the long slots, one
    row per pair.  Every slot on an edge must carry the same run of levels,
    so the slots that carry crossings number the nodes by one cumulative
    sum over the edges (_number_runs).  Each short slot's run of pairs is
    ordered once, low node first, before it is expanded, and round
    contraction (_count_components) counts the components.  Beside one row
    per pair, which MAX_CROSSINGS bounds, a level holds arrays no larger
    than the frame's (3, T) and (E,) ones.
    """
    c = float(value) % 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        # x - floor(x) has the bits of x % 1.0, with no float remainder
        gap = frame.f.values - c + 0.5
        gap -= np.floor(gap)
        hit = np.flatnonzero(np.abs(gap - 0.5) < 1e-9)
        if hit.size:
            raise NonGenericValue(f"level {c} hits the image of vertex {hit[0]}")
        # skip the triangles whose lifted range meets no level; a NaN count
        # stays, for the cap below to refuse
        crossed = np.flatnonzero(_crossings(c, frame.low, frame.high)[1] != 0)
        first, count = _crossings(
            c, np.take(frame.slot_low, crossed, 1), np.take(frame.slot_high, crossed, 1)
        )
        loose = 0.0  # T^2 and T^3 have no loose edges
        if frame.loose.size:
            loose = _crossings(c, frame.loose_low, frame.loose_high)[1].sum()
        total = count.sum() + loose
        if not total <= MAX_CROSSINGS:
            # past 2**53 a sum rounds by its order: add in (triangle, slot)
            # order
            at = np.take(frame.slot, crossed, 1)
            by_slot = np.empty((crossed.size, 3))
            np.put_along_axis(by_slot, at.T, count.T, 1)
            total = by_slot.sum() + loose
            raise InputError(
                f"level {c} has {total:.0f} edge crossings, "
                f"over the cap {MAX_CROSSINGS}"
            )
    first, count = first.astype(np.int64), count.astype(np.int64)
    # the index of each slot in the frame's flattened (3, T) arrays
    slot = np.arange(3)[:, None] * frame.low.size + crossed

    # a lifted level meets each triangle it crosses on exactly two edges
    odd = np.flatnonzero(
        (count[1] + count[2] != count[0])
        | (first[1] != first[0])
        | (first[2] != first[0] + count[1])
    )
    if odd.size:
        _realign(frame, c, odd, first, count, slot)

    # the slots that carry crossings, long slots first
    live = np.flatnonzero(count)
    first, count, slot = first.ravel()[live], count.ravel()[live], slot.ravel()[live]
    edge, offset = frame.slot_edge.ravel()[slot], frame.offset.ravel()[slot]
    n, node, agree = _number_runs(edge, first - offset, count, frame.on_edge)
    if not agree:
        raise _degree_refusal(frame, c, slot, edge, first, count, offset)

    # pair each short slot's crossings with the long slot's at the same k
    n_long = np.searchsorted(live, crossed.size)
    long_node = np.empty(crossed.size, dtype=np.int64)
    long_node[live[:n_long]] = node[:n_long] - first[:n_long]
    short = slice(n_long, None)
    # a run's pairs (a + i, b + i) all have the order of (a, b), and a and
    # b lie on two edges of one triangle, so they differ
    a, b = long_node[live[short] % crossed.size] + first[short], node[short]
    lo, hi = _runs(np.minimum(a, b), np.maximum(a, b), count[short])
    n += int(loose)
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


def generic_levels(f: CircleMap, count: int = 10) -> List[float]:
    """Deterministic sample of levels avoiding all vertex images: a candidate
    within 1e-6 of round(x % 1.0, 12) for an image x is refused.  The
    candidates i = 0, ..., 10 count - 1 are tested in blocks, one (block, V)
    gap array each, of at most 2^14 gaps: past that the array leaves the
    cache and a gap costs more than in a test of one candidate."""
    image = f.values % 1.0
    rows = max(1, min(count, 2 ** 14 // image.size))
    out = []
    for start in range(0, 10 * count, rows):
        if len(out) == count:
            break
        block = range(start, min(start + rows, 10 * count))
        cand = np.array([((i + 0.5) / count + 0.261799) % 1.0 for i in block])
        gap = _circle_gap(cand[:, None], image)
        # round moves an image by at most 5e-13: only gaps near 1e-6 need it
        row, col = np.divmod(np.flatnonzero(np.abs(gap - 1e-6) < 1e-11), image.size)
        exact = [round(x, 12) for x in image[col].tolist()]
        gap[row, col] = _circle_gap(cand[row], np.array(exact))
        ok = np.all(gap > 1e-6, axis=1)
        out += [round(c, 12) for c in cand[ok].tolist()][: count - len(out)]
    if len(out) < count:
        raise NonGenericValue("could not find enough generic levels")
    return out


def _circle_gap(level: float, x: np.ndarray) -> np.ndarray:
    """|level - x| on the circle R/Z, in [0, 1/2], for every value of x:
    x - floor(x) has the bits of x % 1.0, with no float remainder."""
    gap = level - x + 0.5
    gap -= np.floor(gap)
    return np.abs(gap - 0.5)


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
    report.add("closedness", max_coboundary=closed_res)
    if not closed_res <= RESIDUAL_TOL:
        report.add("failure", reason="projected components are not closed")
        return report

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
    counts = [c.component_count for c in censuses]
    report.add(
        "fiber_census",
        levels=[c.value for c in censuses],
        components=counts,
        constant=len(set(counts)) == 1,
    )
    report.ok = fibration_ok(sub, censuses)
    return report
