"""Independent checks of slnfib reports; nothing here imports slnfib.

Each check returns None when the job's output is right and a one-line reason
when it is not.  Expected values come from closed forms, exact rationals, the
torus triangulation rebuilt here, and integer matrix commutators in numpy.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

# A period is the float sum of m edge values, so it can differ from the
# drawn coefficient by rounding; allow that much beyond the budget epsilon.
PERIOD_SLACK = 1e-9
CENSUS_LEVELS = 10


def torus2_edges(m: int):
    """Edges (u, v, ex, ey) of the standard triangulated T^2 on an m x m grid.

    Vertex (x, y) has index x + m*y; each vertex starts the edges along
    (0, 1), (1, 0) and (1, 1), in that order.
    """
    out = []
    for idx in range(m * m):
        x, y = idx % m, idx // m
        for ex, ey in ((0, 1), (1, 0), (1, 1)):
            out.append((idx, (x + ex) % m + m * ((y + ey) % m), ex, ey))
    return out


def torus2_triangles(m: int):
    """Triangles in index order: per vertex z, (z, z+(0,1), z+(1,1)) then
    (z, z+(1,0), z+(1,1))."""
    out = []
    for idx in range(m * m):
        x, y = idx % m, idx // m

        def at(dx, dy):
            return (x + dx) % m + m * ((y + dy) % m)

        out.append((idx, at(0, 1), at(1, 1)))
        out.append((idx, at(1, 0), at(1, 1)))
    return out


def triangles_with_edge(m: int, u: int, v: int):
    return [t for t, tri in enumerate(torus2_triangles(m)) if u in tri and v in tri]


def census_levels(count: int = CENSUS_LEVELS):
    """The documented generic-level rule; no vertex image of a linear map
    with integer periods on a grid of m <= 32 lies within 1e-6 of these."""
    return [round(((i + 0.5) / count + 0.261799) % 1.0, 12) for i in range(count)]


def linear_crossings(m: int, periods, levels) -> int:
    """Level-set crossing points over all edges and levels for the linear
    circle map with integer periods (px, py) on T^2 with an m x m grid."""
    px, py = periods
    y, x = np.divmod(np.arange(m * m), m)
    f0 = (px * x + py * y) / m
    total = 0
    for ex, ey in ((0, 1), (1, 0), (1, 1)):
        f1 = f0 + (px * ex + py * ey) / m
        for c in levels:
            total += int(np.abs(np.floor(f1 - c) - np.floor(f0 - c)).sum())
    return total


def lcm(nums) -> int:
    out = 1
    for n in nums:
        out = out * n // math.gcd(out, n)
    return out


def _rational_periods(periods, q, pullback, components, closed_forms, epsilon):
    """Shared tail: periods near their closed forms, q, pullback and census."""
    try:
        rs = [Fraction(p) for p in periods]
    except (TypeError, ValueError, ZeroDivisionError):
        return f"unparsable periods {periods}"
    for r, want in zip(rs, closed_forms):
        if want == 0.0:
            if r != 0:
                return f"period {r} should be exactly 0"
        elif not abs(float(r) - want) <= epsilon + PERIOD_SLACK:
            return f"period {r} is not within {epsilon} of {want}"
    if q != lcm(r.denominator for r in rs):
        return f"q = {q} is not the lcm of the denominators of {periods}"
    want_pullback = [int(q * r) for r in rs]
    if pullback != want_pullback:
        return f"pullback periods {pullback} != q * periods {want_pullback}"
    g = math.gcd(*(abs(p) for p in want_pullback))
    if components != [g] * CENSUS_LEVELS:
        return f"fiber components {components}, expected {g} at all {CENSUS_LEVELS} levels"
    return None


def _reports(result, want_codes):
    cmds = result["commands"]
    if result["error"]:
        return None, "worker error: " + result["error"].strip().splitlines()[-1]
    codes = [c["code"] for c in cmds]
    for c in cmds:
        if "Traceback" in c["stderr"]:
            return None, f"traceback in {c['argv'][0]}: " + c["stderr"].strip().splitlines()[-1]
    if codes != want_codes:
        return None, f"exit codes {codes}, expected {want_codes}"
    try:
        return [json.loads(c["stdout"]) for c in cmds], None
    except json.JSONDecodeError as e:
        return None, f"report is not JSON: {e}"


def check_sl2_product(inputs, result):
    """check-foliation + pipeline on the product spec of GA holonomy (a, b).

    The R^2 factor's first chart coordinate is log of the GA diagonal, so the
    x-period is log(sqrt(a)) = 0.5 log a and the y-period is 0.  A negative
    control bumps one edge; exactly the triangles on that edge must fail and
    the pipeline must stop right after the Maurer-Cartan stage.
    """
    if inputs["bump"] is None:
        reports, why = _reports(result, [0, 0])
        if why:
            return why
        check, pipe = reports
        if not check["ok"]:
            return "check-foliation verdict is not ok"
        for key, val in (
            ("cochain_consistency", check["cochain_consistency"]),
            ("equivariance", check["equivariance"]["max_deviation"]),
        ):
            if not val < 1e-8:
                return f"{key} {val} is not below 1e-8"
        if not pipe["ok"]:
            return "pipeline verdict is not ok"
        stages = {s["stage"]: s for s in pipe["stages"]}
        if not {"rationalize", "circle_map", "fiber_census"} <= stages.keys():
            return f"pipeline stages {list(stages)}"
        rz = stages["rationalize"]
        return _rational_periods(
            rz["periods"],
            rz["q"],
            stages["circle_map"]["pullback_periods"],
            stages["fiber_census"]["components"],
            [0.5 * math.log(inputs["a"]), 0.0],
            inputs["epsilon"],
        )
    reports, why = _reports(result, [3, 3])
    if why:
        return why
    check, pipe = reports
    u, v = (int(x) for x in inputs["bump"].split("-"))
    want = triangles_with_edge(inputs["m"], u, v)
    got = check["maurer_cartan"]["failing_triangles"]
    if sorted(got) != want:
        return f"bumped edge {inputs['bump']}: failing triangles {got}, expected {want}"
    names = [s["stage"] for s in pipe["stages"]]
    if names != ["maurer_cartan", "failure"]:
        return f"negative control pipeline stages {names}"
    return None


def check_tischler_t2(inputs, result):
    """tischler on a*dx + b*dy: periods near (a, b), integer pullback, and
    gcd(|pullback|) fiber components at every level (the map is linear)."""
    reports, why = _reports(result, [0])
    if why:
        return why
    (rep,) = reports
    if not rep["submersion"]["pass"] or rep["submersion"]["failing_simplices"]:
        return "submersion check failed"
    if not rep["sup_change"] <= inputs["epsilon"]:
        return f"sup_change {rep['sup_change']} exceeds epsilon"
    return _rational_periods(
        rep["periods"],
        rep["q"],
        rep["pullback_periods"],
        rep["fiber_components"],
        [inputs["a"], inputs["b"]],
        inputs["epsilon"],
    )


class BracketTable:
    """[X, Y] for every pair of basis matrices of sl(n), in int64.

    Basis: E_ij (i != j, lexicographic), then Y_i = E_ii - E_11 for i = 2..n.
    A traceless C is E-coefficient C_ij off the diagonal and Y-coefficient
    C_ii for i >= 2.
    """

    def __init__(self, n: int):
        self.n = n
        basis = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    mat = np.zeros((n, n), dtype=np.int64)
                    mat[i - 1, j - 1] = 1
                    basis.append((f"[{i},{j}]", mat))
        for i in range(2, n + 1):
            mat = np.zeros((n, n), dtype=np.int64)
            mat[i - 1, i - 1] = 1
            mat[0, 0] = -1
            basis.append((f"[{i}]", mat))
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        self.expected = {}
        for ka, a in basis:
            for kb, b in basis:
                c = a @ b - b @ a
                self.expected[f"{ka}x{kb}"] = [int(c[i, j]) for i, j in off] + [
                    int(c[i, i]) for i in range(1, n)
                ]

    def check(self, result):
        reports, why = _reports(result, [0])
        if why:
            return why
        (rep,) = reports
        n = self.n
        if rep["n"] != n or rep["violations"] or not rep["ok"]:
            return f"verdict n={rep['n']} ok={rep['ok']} violations={rep['violations'][:3]}"
        if rep["offdiag_pairs_checked"] != (n * n - n) ** 2:
            return f"offdiag_pairs_checked {rep['offdiag_pairs_checked']} != {(n * n - n) ** 2}"
        table = rep["table"]
        if table.keys() != self.expected.keys():
            return f"table has {len(table)} entries, expected {len(self.expected)}"
        for key, want in self.expected.items():
            if [Fraction(c) for c in table[key]] != want:
                return f"bracket {key} = {table[key]}, expected {want}"
        return None
