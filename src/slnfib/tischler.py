"""Constructive circle fibration from a closed 1-cochain.

Stages: perturb the periods of a closed cochain to rationals by adding
multiples of the stored harmonic duals (continued-fraction convergents keep
the perturbation within budget), integrate the scaled cochain over a spanning
tree into a circle-valued vertex map, check the discrete no-singularity
condition per top simplex, and count fiber components at generic levels.

The end-to-end entry point runs the whole chain on an SL(n) (or abelian)
foliation spec: project to the R^2 factor, pick a submersive component, and
emit a deterministic report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    BudgetInfeasible,
    CheckFailed,
    InputError,
    NonGenericValue,
)
from .linalg import EQ_TOL, RESIDUAL_TOL
from .complexes import (
    Cycle,
    ScalarCochain1,
    SimplicialComplex,
    coordinate_cochain,
    homology_generators,
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
    """Closed cochain with rational periods over the generator basis."""

    cochain: ScalarCochain1
    periods: List[Fraction]
    q: int  # lcm of period denominators
    sup_change: float


def _lcm(nums: Sequence[int]) -> int:
    out = 1
    for n in nums:
        out = out * n // math.gcd(out, n)
    return out


def rationalize(
    w: ScalarCochain1,
    cycles: Sequence[Cycle],
    cfg: RationalizeConfig,
    duals: Optional[Sequence[ScalarCochain1]] = None,
) -> RationalizedCochain:
    """Perturb each period to a nearby rational without breaking closedness.

    Each period p_k is replaced by a continued-fraction convergent r_k and
    (r_k - p_k) times the harmonic dual of the k-th generator is added; the
    correction is a sum of closed cochains, so closedness is preserved
    exactly.  duals defaults to the coordinate cochains of a torus complex.
    A period that is not a finite float raises InputError.
    """
    bad = max_coboundary(w)
    if bad > EQ_TOL:
        raise InputError(f"rationalize requires a closed cochain, coboundary {bad:.3e}")
    complex = w.complex
    if duals is None:
        duals = [coordinate_cochain(complex, ax) for ax in range(complex.covering.d)]
    if len(duals) != len(cycles):
        raise InputError("one harmonic dual per generator cycle required")
    for k, eta in enumerate(duals):
        for j, c in enumerate(cycles):
            expect = 1 if j == k else 0
            if abs(float(period(eta, c)) - expect) > EQ_TOL:
                raise InputError(f"dual {k} is not dual to cycle {j}")

    out = w
    periods: List[Fraction] = []
    for k, c in enumerate(cycles):
        try:
            p = float(period(w, c))
        except OverflowError:
            p = math.inf
        if not math.isfinite(p):
            raise InputError(f"period {k} of the cochain is not a finite number")
        r = continued_fraction_approx(p, cfg.epsilon, cfg.max_denominator)
        periods.append(r)
        delta = float(r) - p
        if delta != 0.0:
            out = out + duals[k].scale(delta)
    q = _lcm([r.denominator for r in periods]) if periods else 1
    sup_change = max(abs(float(a) - float(b)) for a, b in zip(out.values, w.values))
    if sup_change > cfg.epsilon:
        raise BudgetInfeasible(
            f"perturbation sup-norm {sup_change:.3e} exceeds epsilon {cfg.epsilon}"
        )
    return RationalizedCochain(out, periods, q, sup_change)


@dataclass
class CircleMap:
    """Vertex map into R/Z with integer periods over the generator basis."""

    complex: SimplicialComplex
    values: Dict[int, Union[float, Fraction]]
    periods: List[int]
    q: int


def integrate_to_circle(rz: RationalizedCochain) -> CircleMap:
    """Integrate q * w' along a spanning tree and reduce mod 1.

    q * w' has integer periods, so the tree-path sums are independent of the
    tree up to integers and descend to R/Z.  Pullback periods over the
    generator cycles are verified to be integers within RESIDUAL_TOL.
    """
    w = rz.cochain
    complex = w.complex
    q = rz.q
    root = 0
    values: Dict[int, float] = {root: 0.0}
    stack = [root]
    while stack:
        u = stack.pop()
        for i in complex.incident_edges(u):
            a, b = complex.edges[i]
            other = b if a == u else a
            if other not in values:
                values[other] = values[u] + q * float(w(u, other))
                stack.append(other)
    if len(values) != complex.n_vertices:
        raise InputError("complex is disconnected")
    values = {v: x % 1.0 for v, x in values.items()}

    periods: List[int] = []
    for r in rz.periods:
        scaled = q * r
        if scaled.denominator != 1:
            raise InputError(f"period {r} did not scale to an integer under q={q}")
        periods.append(int(scaled))
    cm = CircleMap(complex, values, periods, q)
    # edge increments must reproduce q * w' mod 1
    for (u, v), val in zip(complex.edges, w.values):
        diff = (cm.values[v] - cm.values[u] - q * float(val)) % 1.0
        diff = min(diff, 1.0 - diff)
        if diff > RESIDUAL_TOL * max(1.0, q):
            raise CheckFailed(f"edge increment mismatch {diff:.3e} on ({u},{v})")
    return cm


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
    size = [abs(float(x)) for x in w.values]
    failing = [
        t
        for t, edges in enumerate(w.complex.top_edges)
        if max(size[i] for i in edges) <= EQ_TOL
    ]
    return SubmersionReport(failing)


@dataclass
class FiberCensus:
    value: float
    component_count: int
    crossing_edges: int


def _levels_crossed(c: float, start: float, inc: float) -> range:
    """The integers k with c + k strictly inside the lifted edge interval
    between start and start + inc."""
    lo, hi = (start, start + inc) if inc > 0 else (start + inc, start)
    return range(math.floor(lo - c) + 1, math.ceil(hi - c))


def fiber_census(
    f: CircleMap, w: ScalarCochain1, value: Union[float, Fraction]
) -> FiberCensus:
    """Extract the level set of f at a generic value and count components.

    A node is a crossing of the level with an edge (s, t) of complex.edges,
    keyed by the edge index and the integer k with c + k crossed by the lift
    of (s, t) that starts at f(s).  Each triangle lifts its vertices
    affinely, finds its crossings with _levels_crossed, shifts k by the
    integer offset of its lift of s, and joins the two crossings of each
    lifted level; edges in no triangle contribute isolated nodes.  Every
    node must be met once by each triangle on its edge, else CheckFailed.
    Components are counted by union-find.
    """
    c = float(value) % 1.0
    complex = f.complex
    step = [f.q * float(x) for x in w.values]
    for vtx, x in f.values.items():
        gap = abs((float(x) - c + 0.5) % 1.0 - 0.5)
        if gap < 1e-9:
            raise NonGenericValue(f"level {c} hits the image of vertex {vtx}")

    parent: Dict[Tuple[int, int], Tuple[int, int]] = {}
    degree: Dict[Tuple[int, int], int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (s, t) in enumerate(complex.edges):
        if not complex.edge_triangles[i]:
            for k in _levels_crossed(c, float(f.values[s]), step[i]):
                parent[i, k] = (i, k)
                degree[i, k] = 0

    for tri, incidence, (uv, vx, _) in zip(
        complex.triangles, complex.triangle_edges, complex.triangle_values(step)
    ):
        u, v, x = tri
        # lift the three vertices affinely inside this triangle
        lift = {u: float(f.values[u])}
        lift[v] = lift[u] + uv
        lift[x] = lift[v] + vx
        lo = min(lift.values())
        # no edge of a triangle crosses a level outside its lifted range
        if not _levels_crossed(c, lo, max(lift.values()) - lo):
            continue
        local: Dict[int, list] = {}
        for i, _ in incidence:
            s, t = complex.edges[i]
            offset = round(lift[s] - float(f.values[s]))
            for k in _levels_crossed(c, lift[s], lift[t] - lift[s]):
                node = (i, k - offset)
                parent.setdefault(node, node)
                degree[node] = degree.get(node, 0) + 1
                local.setdefault(k, []).append(node)
        for k, nodes in local.items():
            if len(nodes) != 2:
                raise CheckFailed(
                    f"level {c + k} crosses {len(nodes)} edges of triangle {tri}"
                )
            ra, rb = find(nodes[0]), find(nodes[1])
            if ra != rb:
                parent[ra] = rb

    for (i, k), deg in degree.items():
        expect = len(complex.edge_triangles[i])
        if deg != expect:
            raise CheckFailed(
                f"fiber at level {c} (lift index {k}) meets edge "
                f"{complex.edges[i]} in {deg} of its {expect} triangles"
            )

    roots = {find(x) for x in parent}
    return FiberCensus(c, len(roots), len(parent))


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
    """Deterministic sample of levels avoiding all vertex images."""
    taken = sorted({round(float(x) % 1.0, 12) for x in f.values.values()})
    out = []
    i = 0
    while len(out) < count and i < 10 * count:
        cand = ((i + 0.5) / count + 0.261799) % 1.0
        i += 1
        if all(abs((cand - v + 0.5) % 1.0 - 0.5) > 1e-6 for v in taken):
            out.append(round(cand, 12))
    if len(out) < count:
        raise NonGenericValue("could not find enough generic levels")
    return out


def tischler_fibration(
    w: ScalarCochain1, cfg: RationalizeConfig
) -> Tuple[CircleMap, RationalizedCochain, SubmersionReport, List[FiberCensus]]:
    """Closed cochain -> circle map, with submersion check and fiber census
    over the axis generators of the torus."""
    rz = rationalize(w, homology_generators(w.complex), cfg)
    cm = integrate_to_circle(rz)
    sub = check_submersion(rz.cochain)
    censuses = [
        fiber_census(cm, rz.cochain, lvl) for lvl in generic_levels(cm)
    ]
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

    closed_res = max(map(max_coboundary, projected.scalar_cochains))
    report.add("closedness", max_coboundary=closed_res)
    if closed_res > RESIDUAL_TOL:
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
    report.ok = True
    return report
