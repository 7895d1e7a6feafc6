import collections
import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slnfib.cli import main
from slnfib.complexes import (
    ScalarCochain1,
    coordinate_cochain,
    period,
    torus_complex,
)
from slnfib.errors import BudgetInfeasible, CheckFailed, InputError, NonGenericValue
from slnfib.foliation import ga_suspension, linear_torus_spec, product_foliation
from slnfib.groups import GAElement
from slnfib.serialize import dump_foliation_spec, scalar_cochain_to_json
from slnfib import tischler
from slnfib.tischler import (
    CircleMap,
    FiberCensus,
    RationalizeConfig,
    RationalizedCochain,
    census_frame,
    check_submersion,
    continued_fraction_approx,
    fiber_census,
    generic_levels,
    integrate_to_circle,
    pipeline_sln,
    rationalize,
    tischler_fibration,
)


class TestContinuedFraction:
    def test_sqrt2_at_percent(self):
        assert continued_fraction_approx(math.sqrt(2), 0.01, 10 ** 6) == Fraction(17, 12)

    def test_exact_rational_returned(self):
        assert continued_fraction_approx(17 / 12, 1e-9, 10 ** 6) == Fraction(17, 12)

    def test_zero(self):
        assert continued_fraction_approx(0.0, 1e-9, 10) == 0

    def test_coarse_budget_picks_small_denominator(self):
        # pi at 0.2: the first convergent 3/1 already qualifies
        assert continued_fraction_approx(math.pi, 0.2, 10 ** 6) == 3

    def test_denominator_cap(self):
        with pytest.raises(BudgetInfeasible) as e:
            continued_fraction_approx(math.sqrt(2), 1e-9, 100)
        assert "best error" in str(e.value)


def mixed_cochain(m):
    k = torus_complex(2, m)
    return coordinate_cochain(k, 0).scale(1.0) + coordinate_cochain(k, 1).scale(
        math.sqrt(2)
    )


class TestRationalize:
    def test_sqrt2_cochain_m16(self):
        w = mixed_cochain(16)
        rz = rationalize(w, RationalizeConfig(0.01))
        assert rz.periods == [Fraction(1), Fraction(17, 12)]
        assert rz.q == 12
        assert rz.sup_change <= 0.01
        assert abs(float(period(rz.cochain, 1)) - 17 / 12) < 1e-12

    def test_already_rational_untouched(self, t2_8):
        w = coordinate_cochain(t2_8, 0)
        rz = rationalize(w, RationalizeConfig(0.01))
        assert rz.periods == [Fraction(1), Fraction(0)]
        assert rz.q == 1
        assert rz.sup_change == 0.0

    def test_correction_preserves_closedness(self):
        w = mixed_cochain(8)
        rz = rationalize(w, RationalizeConfig(0.01))
        from slnfib.complexes import coboundary

        assert max(abs(float(x)) for x in coboundary(rz.cochain)) < 1e-12

    def test_rejects_non_closed(self, t2_8):
        w = coordinate_cochain(t2_8, 0)
        values = [w(u, v) for u, v in t2_8.edges]
        values[3] = values[3] + Fraction(1, 7)
        bad = ScalarCochain1(t2_8, values)
        with pytest.raises(InputError):
            rationalize(bad, RationalizeConfig(0.01))

    def test_budget_infeasible(self):
        w = mixed_cochain(8)
        with pytest.raises(BudgetInfeasible):
            rationalize(w, RationalizeConfig(1e-9, max_denominator=100))


class TestIntegrate:
    @pytest.mark.parametrize(
        "d, m, coeffs, periods, bump",
        [
            (1, 7, [math.sqrt(2)], [17], False),
            (2, 16, [1.0, math.sqrt(2)], [12, 17], False),
            (3, 5, [1.0, math.sqrt(2), math.sqrt(3)], [132, 187, 228], False),
            (2, 9, [1.0, math.sqrt(2)], [12, 17], True),
        ],
        ids=["t1", "t2", "t3", "t2-bumped"],
    )
    def test_matches_closed_form(self, d, m, coeffs, periods, bump):
        # w = sum_k c_k dx_k (+ dh for a random vertex function h), and
        # q w' = sum_k p_k dx_k (+ q dh); the circle map is
        # sum_k p_k x_k / m (+ q (h(v) - h(0))) mod 1
        k = torus_complex(d, m)
        w = coordinate_cochain(k, 0).scale(coeffs[0])
        for axis in range(1, d):
            w = w + coordinate_cochain(k, axis).scale(coeffs[axis])
        h = np.random.default_rng(5).uniform(-1, 1, k.n_vertices) * bump
        tail, head = k.edges.T
        w = ScalarCochain1(k, w.values + h[head] - h[tail])
        rz = rationalize(w, RationalizeConfig(0.01))
        cm = integrate_to_circle(rz)
        assert cm.periods == periods
        for v in range(k.n_vertices):
            x = k.vertex_coords[v]
            expect = (x @ periods / m + rz.q * (h[v] - h[0])) % 1.0
            diff = abs(cm.values[v] - expect) % 1.0
            assert min(diff, 1.0 - diff) < 1e-9

    def test_integer_periods_required(self, t2_8):
        w = coordinate_cochain(t2_8, 0)
        rz = rationalize(w, RationalizeConfig(0.01))
        cm = integrate_to_circle(rz)
        assert cm.periods == [1, 0]
        assert all(0.0 <= x < 1.0 for x in cm.values)
        assert cm.values.shape == (t2_8.n_vertices,)
        assert cm.values.dtype == np.float64 and not cm.values.flags.writeable


class TestSubmersion:
    def test_coordinate_cochain_passes(self, t2_8):
        assert check_submersion(coordinate_cochain(t2_8, 0)).passed()

    def test_zero_cochain_fails_everywhere(self, t2_8):
        w = ScalarCochain1(t2_8, [Fraction(0)] * len(t2_8.edges))
        rep = check_submersion(w)
        assert len(rep.failing_simplices) == len(t2_8.triangles)

    def test_zeroed_triangle_localized(self, t2_8):
        w = coordinate_cochain(t2_8, 0)
        t = 4
        a, b, c = t2_8.triangles[t]
        zeroed = {(a, b), (b, c), (a, c)}
        values = [
            Fraction(0) if (u, v) in zeroed or (v, u) in zeroed else w(u, v)
            for u, v in t2_8.edges
        ]
        rep = check_submersion(ScalarCochain1(t2_8, values))
        assert t in rep.failing_simplices
        # zeroing one triangle's edges leaves all others with a live edge
        assert len(rep.failing_simplices) <= 2


class TestFiberCensus:
    def circle_map_dx(self, m):
        k = torus_complex(2, m)
        w = coordinate_cochain(k, 0)
        rz = rationalize(w, RationalizeConfig(0.01))
        return integrate_to_circle(rz), rz.cochain

    def test_coordinate_level_is_one_circle(self):
        cm, w = self.circle_map_dx(5)
        census = fiber_census(census_frame(cm, w), 0.5)
        assert census.component_count == 1
        # the vertical line x = 0.5 crosses one horizontal and one diagonal
        # edge per row
        assert census.crossing_edges == 2 * 5

    def test_coprime_periods_single_component(self):
        k = torus_complex(2, 8)
        w = coordinate_cochain(k, 0).scale(2) + coordinate_cochain(k, 1).scale(3)
        rz = rationalize(w, RationalizeConfig(0.01))
        cm = integrate_to_circle(rz)
        assert cm.periods == [2, 3]
        frame = census_frame(cm, rz.cochain)
        for lvl in generic_levels(cm, 5):
            assert fiber_census(frame, lvl).component_count == 1

    def test_multiple_components_for_scaled_map(self):
        # periods (2, 0): the fiber splits into two parallel circles
        k = torus_complex(2, 8)
        w = coordinate_cochain(k, 0).scale(2)
        rz = rationalize(w, RationalizeConfig(0.01))
        cm = integrate_to_circle(rz)
        frame = census_frame(cm, rz.cochain)
        for lvl in generic_levels(cm, 5):
            assert fiber_census(frame, lvl).component_count == 2

    def test_vertex_level_rejected(self):
        cm, w = self.circle_map_dx(5)
        with pytest.raises(NonGenericValue):
            fiber_census(census_frame(cm, w), 0.0)

    def test_generic_levels_avoid_vertex_images(self):
        cm, _ = self.circle_map_dx(5)
        images = {round(x, 12) for x in cm.values.tolist()}
        for lvl in generic_levels(cm):
            assert all(abs((lvl - v + 0.5) % 1.0 - 0.5) > 1e-6 for v in images)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 19),
                st.sampled_from([-1, 1]),
                st.sampled_from([-1e-11, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 1e-11]),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_generic_levels_round_images_as_python_does(self, near):
        # images 1e-6 (give or take a last digit) from a candidate level, some
        # halfway between two 12-digit decimals; the reference is the
        # vertex-by-vertex rule on round(x % 1.0, 12)
        values = []
        for i, side, delta, tie in near:
            x = (((i + 0.5) / 10 + 0.261799) + side * (1e-6 + delta)) % 1.0
            values.append((math.floor(x * 1e12) + 0.5) / 1e12 if tie else x)
        m = max(3, len(values))
        cm = CircleMap(torus_complex(1, m), np.resize(values, m), [1], 1)

        def reference(count=10):
            taken = sorted({round(x % 1.0, 12) for x in cm.values.tolist()})
            out, i = [], 0
            while len(out) < count and i < 10 * count:
                cand = ((i + 0.5) / count + 0.261799) % 1.0
                i += 1
                if all(abs((cand - v + 0.5) % 1.0 - 0.5) > 1e-6 for v in taken):
                    out.append(round(cand, 12))
            return out if len(out) == count else "refused"

        try:
            got = generic_levels(cm)
        except NonGenericValue:
            got = "refused"
        assert got == reference()

    def test_circle_fiber_is_one_point(self):
        # T^1 has no triangles: every edge is loose and crossings are points
        w = coordinate_cochain(torus_complex(1, 4), 0)
        _, _, sub, censuses = tischler_fibration(w, RationalizeConfig(0.01))
        assert sub.passed()
        assert [c.component_count for c in censuses] == [1] * 10
        assert {c.crossing_edges for c in censuses} == {1}

    @pytest.mark.parametrize(
        "rise, vertex, crossings",
        [(1e7, 0.25, "30000000"), (0.25, math.nan, "nan")],
        ids=["over-cap", "nan-lift"],
    )
    def test_census_refused_before_expanding(self, rise, vertex, crossings):
        k = torus_complex(1, 3)
        cm = CircleMap(k, np.array([0.0, vertex, 0.5]), [1], 1)
        w = ScalarCochain1(k, [rise] * 3)
        with pytest.raises(InputError, match=f"has {crossings} edge crossings"):
            fiber_census(census_frame(cm, w), 0.1)

    @pytest.mark.parametrize("d, m, seed", [(2, 3, 0), (2, 4, 1), (3, 3, 2)])
    def test_refused_total_is_summed_in_triangle_slot_order(self, d, m, seed):
        # past 2**53 a float sum rounds by its order; the refused total adds
        # the slot counts of the crossed triangles in (triangle, slot) order,
        # each counted in float64 as the census counts it
        rng = np.random.default_rng(seed)
        k = torus_complex(d, m)
        w = ScalarCochain1(k, rng.normal(size=len(k.edges)) * 1e17)
        cm = CircleMap(k, rng.random(k.n_vertices), [1] * d, 1)
        c = 0.123

        def count(start, rise):
            lo, hi = sorted([start, start + rise])
            first = np.floor(np.float64(lo) - c) + 1
            return max(np.ceil(np.float64(hi) - c) - first, 0.0)

        counts = []
        for (u, v, x), edges in zip(k.triangles.tolist(), k.triangle_edges.tolist()):
            lift = {u: float(cm.values[u])}
            lift[v] = lift[u] + w.values[edges[0][0]]
            lift[x] = lift[v] + w.values[edges[1][0]]
            lo = min(lift.values())
            if count(lo, max(lift.values()) - lo):
                slots = ((u, v), (v, x), (u, x))
                counts.append([count(lift[s], lift[t] - lift[s]) for s, t in slots])
        total = np.array(counts).sum()
        assert total > 2.0 ** 53
        with pytest.raises(InputError, match=f"has {total:.0f} edge crossings"):
            fiber_census(census_frame(cm, w), c)

    def test_nan_lift_on_triangles_refused(self):
        # the frame casts every triangle's offsets, NaN ones too, before the
        # census of a level refuses them
        k = torus_complex(2, 3)
        cm = CircleMap(k, np.r_[np.zeros(8), math.nan], [1, 1], 1)
        frame = census_frame(cm, ScalarCochain1(k, [0.3] * len(k.edges)))
        with pytest.raises(InputError, match="has nan edge crossings"):
            fiber_census(frame, 0.5)

    def test_inconsistent_lift_fails_degree_check(self):
        cm, w = self.circle_map_dx(5)
        values = cm.values.copy()
        values[7] = (values[7] + 0.3) % 1.0
        cm = CircleMap(cm.complex, values, cm.periods, cm.q)
        frame = census_frame(cm, w)
        with pytest.raises(CheckFailed, match=r"meets edge .* of its 2 triangles"):
            for lvl in generic_levels(cm):
                fiber_census(frame, lvl)

    @pytest.mark.parametrize("d, m, coeffs", [(2, 6, (2.0, 3.0)), (3, 3, (1.5, -1.0, 2.0))])
    def test_census_does_not_trust_the_frame_roles(self, d, m, coeffs):
        # the roles only guess which slot of a triangle is the long one: with
        # the slot rows of every triangle shuffled, every level has the same
        # census or the same refusal
        k = torus_complex(d, m)
        w = coordinate_cochain(k, 0).scale(coeffs[0])
        for axis in range(1, d):
            w = w + coordinate_cochain(k, axis).scale(coeffs[axis])
        rz = rationalize(w, RationalizeConfig(0.01))
        cm = integrate_to_circle(rz)
        values = cm.values.copy()
        values[4] = (values[4] + 0.3) % 1.0  # degree refusals at some levels
        for f in (cm, CircleMap(k, values, cm.periods, cm.q)):
            frame = census_frame(f, rz.cochain)
            rng = np.random.default_rng(d)
            perm = np.array([rng.permutation(3) for _ in k.triangles]).T
            names = ("slot_edge", "offset", "slot_low", "slot_high")
            shuffled = dataclasses.replace(
                frame, **{a: np.take_along_axis(getattr(frame, a), perm, 0) for a in names}
            )
            for value in generic_levels(f):
                outcomes = []
                for each in (frame, shuffled):
                    try:
                        outcomes.append(fiber_census(each, value))
                    except CheckFailed as e:
                        outcomes.append(str(e))
                assert outcomes[1] == outcomes[0]

    def test_short_slots_that_skip_a_level_are_refused(self):
        # triangle 0's short slots cross as many levels as its long slot,
        # the low one from the long slot's first level, but the high one
        # skips level 1: levels 1 and 3 then cross one edge each, and the
        # refusal names the first of them in (slot, k) order
        cm, w = self.circle_map_dx(3)
        frame = census_frame(cm, w)
        low, high = frame.slot_low.copy(), frame.slot_high.copy()
        # by role: the long slot crosses k = 0, 1, 2; the short ones 0 and 2, 3
        low[:, 0], high[:, 0] = (0.0, 0.0, 1.9), (2.9, 1.0, 3.9)
        tri_low, tri_high = frame.low.copy(), frame.high.copy()
        tri_low[0], tri_high[0] = 0.0, 3.9
        frame = dataclasses.replace(
            frame, slot_low=low, slot_high=high, low=tri_low, high=tri_high
        )
        slot = [
            cm.complex.triangle_edges[0, :, 0].tolist().index(e)
            for e in frame.slot_edge[:, 0]
        ]
        k = 1 if slot[0] < slot[2] else 3
        triangle = tuple(cm.complex.triangles[0].tolist())
        with pytest.raises(CheckFailed) as e:
            fiber_census(frame, 0.5)
        assert str(e.value) == f"level {0.5 + k} crosses 1 edges of triangle {triangle}"

    def test_half_digit_crossings_repro(self, capsys, tmp_path):
        # crossing positions of this form land halfway between 9th-digit
        # values, where the two triangles on an edge used to round apart
        a, b = 0.9886863694964385, 1.6376747351482408
        k = torus_complex(2, 5)
        w = coordinate_cochain(k, 0).scale(a) + coordinate_cochain(k, 1).scale(b)
        path = tmp_path / "repro.json"
        path.write_text(
            json.dumps({"torus": {"d": 2, "m": 5}, "cochain": scalar_cochain_to_json(w)})
        )
        code = main(["tischler", str(path), "--epsilon", "0.01"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["periods"] == ["87/88", "18/11"]
        assert rep["q"] == 88
        assert rep["pullback_periods"] == [87, 144]
        assert rep["fiber_components"] == [3] * 10
        assert code == 0 and rep["ok"]


def small_coefficient(max_num, max_den):
    return st.builds(
        Fraction, st.integers(-max_num, max_num), st.integers(1, max_den)
    )


def census_of_linear_form(d, m, coeffs, jitter, epsilon):
    """Fiber counts of sum_i (c_i + jitter_i * epsilon) dx_i on T^d, and the
    gcd of its pullback periods."""
    k = torus_complex(d, m)
    w = coordinate_cochain(k, 0).scale(float(coeffs[0]) + jitter[0] * epsilon)
    for axis in range(1, d):
        w = w + coordinate_cochain(k, axis).scale(
            float(coeffs[axis]) + jitter[axis] * epsilon
        )
    cm, _, sub, censuses = tischler_fibration(w, RationalizeConfig(epsilon))
    assert sub.passed()
    return [c.component_count for c in censuses], math.gcd(*cm.periods)


# |jitter * epsilon| <= 0.02 < 1/(2 q^2) for q <= 4 keeps each c_i = p/q a
# convergent of the drawn float, so q stays small and the census fast
JITTER = st.floats(-0.4, 0.4)
EPSILON = st.sampled_from([0.002, 0.01, 0.05])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@example(  # a draw on which 9th-digit float keys split nodes
    m=3,
    coeffs=(Fraction(4), Fraction(5, 4)),
    jitter=(0.19289674233583587, 0.39610054651102),
    epsilon=0.05,
)
@given(
    m=st.integers(3, 10),
    coeffs=st.tuples(small_coefficient(6, 4), small_coefficient(6, 4)).filter(any),
    jitter=st.tuples(JITTER, JITTER),
    epsilon=EPSILON,
)
def test_t2_linear_census_is_gcd_of_pullback_periods(m, coeffs, jitter, epsilon):
    counts, expect = census_of_linear_form(2, m, coeffs, jitter, epsilon)
    assert counts == [expect] * len(counts)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(3, 5),
    coeffs=st.tuples(*[small_coefficient(3, 2)] * 3).filter(any),
    jitter=st.tuples(JITTER, JITTER, JITTER),
    epsilon=EPSILON,
)
def test_t3_linear_census_is_gcd_of_pullback_periods(m, coeffs, jitter, epsilon):
    counts, expect = census_of_linear_form(3, m, coeffs, jitter, epsilon)
    assert counts == [expect] * len(counts)


def loop_census(f, w, value):
    """The per-triangle union-find census that the array census replaced,
    kept as its reference: same result, or same error and message."""
    c = float(value) % 1.0
    complex = f.complex
    step = [f.q * float(x) for x in w.values]
    for vtx, x in enumerate(f.values.tolist()):
        if abs((float(x) - c + 0.5) % 1.0 - 0.5) < 1e-9:
            raise NonGenericValue(f"level {c} hits the image of vertex {vtx}")

    def crossed(start, inc):
        lo, hi = (start, start + inc) if inc > 0 else (start + inc, start)
        return range(math.floor(lo - c) + 1, math.ceil(hi - c))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    incidences = complex.triangle_edges.tolist()
    on_edge = collections.Counter(i for incidence in incidences for i, _ in incidence)
    parent, degree = {}, {}
    edges = [tuple(e) for e in complex.edges.tolist()]
    for i, (s, t) in enumerate(edges):
        if not on_edge[i]:
            for k in crossed(float(f.values[s]), step[i]):
                parent[i, k] = (i, k)
                degree[i, k] = 0
    triangles = complex.triangles.tolist()
    values = [[step[i] if s > 0 else -step[i] for i, s in inc] for inc in incidences]
    for tri, incidence, (uv, vx, _) in zip(triangles, incidences, values):
        u, v, x = tri
        lift = {u: float(f.values[u])}
        lift[v] = lift[u] + uv
        lift[x] = lift[v] + vx
        lo = min(lift.values())
        if not crossed(lo, max(lift.values()) - lo):
            continue
        local = {}
        for i, _ in incidence:
            s, t = edges[i]
            offset = round(lift[s] - float(f.values[s]))
            for k in crossed(lift[s], lift[t] - lift[s]):
                node = (i, k - offset)
                parent.setdefault(node, node)
                degree[node] = degree.get(node, 0) + 1
                local.setdefault(k, []).append(node)
        for k, nodes in local.items():
            if len(nodes) != 2:
                raise CheckFailed(
                    f"level {c + k} crosses {len(nodes)} edges of triangle {tuple(tri)}"
                )
            parent[find(nodes[0])] = find(nodes[1])
    for (i, k), deg in degree.items():
        if deg != on_edge[i]:
            raise CheckFailed(
                f"fiber at level {c} (lift index {k}) meets edge "
                f"{edges[i]} in {deg} of its {on_edge[i]} triangles"
            )
    return FiberCensus(c, len({find(x) for x in parent}), len(parent))


def array_census(f, w, value):
    return fiber_census(census_frame(f, w), value)


def census_outcome(census, f, w, value):
    try:
        return census(f, w, value)
    except (CheckFailed, NonGenericValue) as e:
        return type(e).__name__, str(e)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@example(  # moved vertices: a fiber node met by 1 of the 2 triangles on its edge
    d=2,
    m=5,
    coeffs=(Fraction(3, 4), Fraction(-5, 2), Fraction(3, 4)),
    scale=1,
    moves=[(73444, -0.129), (445161, -0.094)],
    levels=[0.871],
)
@example(  # the slots on an edge agree on their first level, not their count
    d=2,
    m=3,
    coeffs=(Fraction(5), Fraction(1, 2), Fraction(0)),
    scale=8,
    moves=[(504511, -0.306)],
    levels=[0.36066666666666336],
)
@example(  # two wrong nodes in one triangle: the first in (slot, k) order
    d=2,
    m=3,
    coeffs=(Fraction(-2, 3), Fraction(-3, 4), Fraction(-4, 3)),
    scale=1,
    moves=[(730737, 0.437), (316657, 0.488)],
    levels=[0.1546666666666674],
)
@example(  # a level on a lifted corner crosses 1 edge of a triangle
    d=3,
    m=3,
    coeffs=(Fraction(-1), Fraction(3, 2), Fraction(-4, 3)),
    scale=1,
    moves=[(73875, -0.583), (17501, -0.066), (790778, 0.358)],
    levels=[0.7503333333333335],
)
@example(  # the same with the long slot alone crossed at that level
    d=3,
    m=4,
    coeffs=(Fraction(-4, 3), Fraction(0), Fraction(5, 4)),
    scale=1,
    moves=[(240371, 0.445)],
    levels=[0.4450000000000003],
)
@example(  # two levels cross 1 edge of a triangle: the first in (slot, k) order
    d=2,
    m=3,
    coeffs=(Fraction(2), Fraction(2, 3), Fraction(1)),
    scale=1,
    moves=[(814964, 0.288)],
    levels=[0.6213333333333328],
)
@example(  # T^3 with a moved vertex: a count, then two degree refusals
    d=3,
    m=4,
    coeffs=(Fraction(3, 2), Fraction(-1, 3), Fraction(5, 4)),
    scale=8,
    moves=[(31337, 0.25)],
    levels=[0.3],
)
@example(  # dense: up to 28 crossings on a slot, 1,400 nodes per level
    d=2,
    m=5,
    coeffs=(Fraction(5, 4), Fraction(-7, 2), Fraction(1)),
    scale=40,
    moves=[],
    levels=[0.5],
)
@given(
    d=st.sampled_from([1, 2, 2, 3]),
    m=st.integers(3, 7),
    coeffs=st.tuples(*[small_coefficient(5, 4)] * 3).filter(lambda c: c[0]),
    # a large scale puts many crossings on each slot
    scale=st.sampled_from([1, 1, 8, 40]),
    moves=st.lists(
        st.tuples(st.integers(0, 10 ** 6), st.floats(-0.7, 0.7)), max_size=3
    ),
    levels=st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=4),
)
def test_array_census_matches_the_loop_census(d, m, coeffs, scale, moves, levels):
    m = min(m, 4) if d == 3 else m if scale == 1 else min(m, 5)
    k = torus_complex(d, m)
    w = coordinate_cochain(k, 0).scale(scale * float(coeffs[0]))
    for axis in range(1, d):
        w = w + coordinate_cochain(k, axis).scale(scale * float(coeffs[axis]))
    rz = rationalize(w, RationalizeConfig(0.01))
    cm = integrate_to_circle(rz)
    # moved vertex values make lifts that disagree across triangles
    values = cm.values.copy()
    for v, shift in moves:
        values[v % k.n_vertices] = (values[v % k.n_vertices] + shift) % 1.0
    cm = CircleMap(k, values, cm.periods, cm.q)
    for value in levels + generic_levels(cm, 2):
        expect = census_outcome(loop_census, cm, rz.cochain, value)
        assert census_outcome(array_census, cm, rz.cochain, value) == expect


def crossing_oracle(m, d, periods):
    """Crossings of a generic level of the linear circle map with integer
    pullback periods p on T^d: the m edges z, z + e, ..., z + (m - 1) e
    close up and rise by <p, e> in all, so each of the m^(d-1) such loops
    crosses every level |<p, e>| times."""
    rises = [
        sum(p * x for p, x in zip(periods, e))
        for e in itertools.product((0, 1), repeat=d)
        if any(e)
    ]
    return m ** (d - 1) * sum(map(abs, rises))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from([2, 2, 3]),
    m=st.integers(3, 9),
    coeffs=st.tuples(*[small_coefficient(4, 3)] * 3).filter(lambda c: any(c[:2])),
)
def test_linear_census_crossings_match_closed_form(d, m, coeffs):
    coeffs = coeffs[:d]
    m = m if d == 2 else min(m, 4)
    k = torus_complex(d, m)
    w = coordinate_cochain(k, 0).scale(float(coeffs[0]))
    for axis in range(1, d):
        w = w + coordinate_cochain(k, axis).scale(float(coeffs[axis]))
    # denominators <= 3 keep each coefficient its own convergent at 0.01
    q = math.lcm(*(c.denominator for c in coeffs))
    periods = [int(q * c) for c in coeffs]
    cm, rz, _, censuses = tischler_fibration(w, RationalizeConfig(0.01))
    assert rz.q == q and cm.periods == periods
    for census in censuses:
        assert census.crossing_edges == crossing_oracle(m, d, periods)
        assert census.component_count == math.gcd(*periods)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example(n_edges=1, runs=[], order=random.Random(0), flaw=None)
@example(  # negative levels, one edge bare, one edge on three triangles
    n_edges=4,
    runs=[(0, -7, 2, 2), (2, -3, 9, 3), (3, 5, 1, 1)],
    order=random.Random(1),
    flaw=None,
)
@example(n_edges=2, runs=[(1, 4, 3, 2)], order=random.Random(2), flaw=("first", 1))
@example(n_edges=2, runs=[(1, 4, 3, 2)], order=random.Random(3), flaw=("count", 0))
@example(n_edges=2, runs=[(1, 4, 3, 2)], order=random.Random(4), flaw=("drop", 0))
@example(n_edges=1, runs=[(0, 4, 3, 3)], order=random.Random(5), flaw=("shift", 0))
@example(n_edges=1, runs=[(0, 4, 3, 3)], order=random.Random(5), flaw=("shift", 1))
@given(
    n_edges=st.integers(1, 8),
    runs=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.one_of(st.integers(-3, 3), st.integers(-1000, 1000)),
            st.integers(1, 6),
            st.integers(1, 3),
        ),
        max_size=8,
        unique_by=lambda run: run[0],
    ),
    order=st.randoms(use_true_random=False),
    flaw=st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(["first", "count", "drop", "shift"]), st.integers(0, 10 ** 6)
        ),
    ),
)
def test_run_numbering_matches_unique(n_edges, runs, order, flaw):
    # slots (edge, first level, count), each edge carrying one run on every
    # one of its triangles, in a drawn order
    runs = {e % n_edges: (first, count, tris) for e, first, count, tris in runs}
    slots = [(e, f, c) for e, (f, c, tris) in runs.items() for _ in range(tris)]
    order.shuffle(slots)
    on_edge = np.zeros(n_edges, dtype=np.int64)
    for e, (_, _, tris) in runs.items():
        on_edge[e] = tris
    flawed = False
    if flaw and slots:
        # with another slot on its edge, a moved slot differs from it and a
        # dropped one leaves a triangle of the edge uncrossed
        kind, j = flaw[0], flaw[1] % len(slots)
        e, first, count = slots[j]
        flawed = on_edge[e] > 1
        if kind == "drop":
            del slots[j]
        elif kind == "shift":
            # move one crossing to the next slot on the edge: the counts
            # keep their sum
            flawed &= count > 1
            if flawed:
                later = [i % len(slots) for i in range(j + 1, j + len(slots))]
                i = next(i for i in later if slots[i][0] == e)
                slots[j], slots[i] = (e, first, count - 1), (e, first, count + 1)
        else:
            slots[j] = (e, first + (kind == "first"), count + (kind == "count"))
    edge, first, count = np.array(slots, dtype=np.int64).reshape(-1, 3).T
    n, node, agree = tischler._number_runs(edge, first, count, on_edge)
    assert agree == (not flawed)
    if not agree:
        return
    rows = np.array(
        [(e, level) for e, f, c in slots for level in range(f, f + c)], dtype=np.int64
    ).reshape(-1, 2)
    numbers = np.array(
        [v for j, (_, _, c) in enumerate(slots) for v in range(node[j], node[j] + c)],
        dtype=np.int64,
    )
    keys, first_row, number = np.unique(
        rows, axis=0, return_index=True, return_inverse=True
    )
    assert n == len(keys)
    assert numbers.tolist() == number.ravel().tolist()
    assert numbers[first_row].tolist() == list(range(n))


def test_fibration_calls_census_through_module_attribute(monkeypatch):
    # bench/tracer.py rebinds tischler.fiber_census to count crossings
    calls, frames = [], []
    census, frame_of = tischler.fiber_census, tischler.census_frame

    def counting(frame, value):
        out = census(frame, value)
        calls.append((value, out.crossing_edges))
        return out

    def framing(f, w):
        frames.append(f)
        return frame_of(f, w)

    monkeypatch.setattr(tischler, "fiber_census", counting)
    monkeypatch.setattr(tischler, "census_frame", framing)
    cm, _, _, censuses = tischler_fibration(mixed_cochain(8), RationalizeConfig(0.01))
    assert len(frames) == 1 and frames[0] is cm
    assert [value for value, _ in calls] == generic_levels(cm)
    assert [n for _, n in calls] == [c.crossing_edges for c in censuses]
    assert all(isinstance(n, int) and n > 0 for _, n in calls)


def diagonal_edge(k):
    """An edge on no axis loop, away from triangle 0."""
    base = k.covering.base_index
    return k.orient(base((1, 1)), base((2, 2)))[0]


class TestNaNVerdicts:
    """A NaN residual fails each tolerance test instead of passing it."""

    def test_nan_coboundary_is_not_closed(self, t2_8):
        values = list(coordinate_cochain(t2_8, 0).values)
        values[diagonal_edge(t2_8)] = math.nan
        with pytest.raises(InputError, match="closed cochain, coboundary nan"):
            rationalize(ScalarCochain1(t2_8, values), RationalizeConfig(0.01))

    def test_nan_sup_change_is_over_budget(self, monkeypatch):
        w = mixed_cochain(8)
        k = w.complex
        dual = coordinate_cochain(k, 1).values.copy()
        dual[diagonal_edge(k)] = math.nan

        def nan_dual(complex, axis):  # dx_1 with a NaN off the axis loops
            if axis == 1:
                return ScalarCochain1(complex, dual)
            return coordinate_cochain(complex, axis)

        monkeypatch.setattr(tischler, "coordinate_cochain", nan_dual)
        with pytest.raises(BudgetInfeasible, match="sup-norm nan"):
            rationalize(w, RationalizeConfig(0.01))

    @pytest.mark.parametrize(
        "edge, error, message",
        [
            (2, CheckFailed, r"mismatch nan on \(2,0\)"),
            (1, InputError, r"^circle map value at vertex 2 is not finite$"),
        ],
        ids=["off-tree", "tree"],
    )
    def test_nan_edge_increment_is_a_mismatch(self, edge, error, message):
        # T^1, m = 3: the axis walk from vertex 0 takes edges (0, 1) and
        # (1, 2), so a NaN on edge (2, 0) reaches only the increment check,
        # and a NaN on edge (1, 2) makes the value at vertex 2 NaN
        k = torus_complex(1, 3)
        values = [Fraction(1, 3)] * 3
        values[edge] = math.nan
        rz = RationalizedCochain(ScalarCochain1(k, values), [Fraction(1)], 1, 0.0)
        with pytest.raises(error, match=message):
            integrate_to_circle(rz)

    def test_nan_edge_is_not_submersive(self):
        # on T^1 each edge is a top simplex
        k = torus_complex(1, 3)
        w = ScalarCochain1(k, [math.nan, 1 / 3, 1 / 3])
        assert check_submersion(w).failing_simplices == [0]

    def test_nan_closedness_fails_the_pipeline(self, monkeypatch):
        monkeypatch.setattr(tischler, "max_coboundary", lambda w: math.nan)
        spec = linear_torus_spec(8, [[1.0, 0.0], [0.0, 1.0]])
        rep = pipeline_sln(spec, RationalizeConfig(0.01))
        assert not rep.ok
        assert rep.stages[-1] == {
            "stage": "failure",
            "reason": "projected components are not closed",
        }


class TestTischlerFibration:
    def test_sqrt2_end_to_end(self):
        w = mixed_cochain(16)
        cm, rz, sub, censuses = tischler_fibration(w, RationalizeConfig(0.01))
        assert cm.periods == [12, 17]
        assert sub.passed()
        counts = {c.component_count for c in censuses}
        assert counts == {1}


class TestPipeline:
    def test_abelian_identity_spec(self):
        spec = linear_torus_spec(8, [[1.0, 0.0], [0.0, 1.0]])
        rep = pipeline_sln(spec, RationalizeConfig(0.01))
        assert rep.ok
        names = [s["stage"] for s in rep.stages]
        assert names == [
            "maurer_cartan",
            "factor_split",
            "closedness",
            "component_selection",
            "rationalize",
            "circle_map",
            "submersion",
            "fiber_census",
        ]

    def test_product_spec_succeeds(self, product_spec):
        rep = pipeline_sln(product_spec, RationalizeConfig(0.01))
        assert rep.ok
        census = rep.stages[-1]
        assert census["stage"] == "fiber_census"
        assert census["constant"]

    def test_deterministic_reports(self, product_spec):
        cfg = RationalizeConfig(0.01)
        a = json.dumps(pipeline_sln(product_spec, cfg).to_dict(), sort_keys=True)
        fresh = product_foliation(ga_suspension(8, GAElement(2.0, 0.0)))
        b = json.dumps(pipeline_sln(fresh, cfg).to_dict(), sort_keys=True)
        assert a == b

    def test_zero_cochain_designated_failure(self):
        spec = linear_torus_spec(8, [[0.0, 0.0], [0.0, 0.0]])
        rep = pipeline_sln(spec, RationalizeConfig(0.01))
        assert not rep.ok
        assert rep.stages[-1]["stage"] == "failure"
        assert "no submersive component" in rep.stages[-1]["reason"]

    def test_wrong_abelian_rank_rejected(self):
        spec = linear_torus_spec(8, [[1.0, 0.0]])
        rep = pipeline_sln(spec, RationalizeConfig(0.01))
        assert not rep.ok
        assert "R2" in rep.stages[-1]["reason"]

    def test_budget_failure_reported_not_raised(self, product_spec):
        rep = pipeline_sln(product_spec, RationalizeConfig(1e-12, max_denominator=3))
        assert not rep.ok
        assert rep.stages[-1]["stage"] == "failure"

    def test_changing_fiber_count_fails_both_commands(self, capsys, tmp_path):
        # dx + sqrt(2) dy plus the coboundary of a bump of 0.5 at grid vertex
        # (0, 7): fibers with 3 components at some levels and 2 at others
        spec = linear_torus_spec(16, [[1, math.sqrt(2)], [0, 1]])
        k = spec.complex
        h = np.zeros(k.n_vertices)
        h[k.covering.base_index((0, 7))] = 0.5
        tail, head = k.edges.T
        w = ScalarCochain1(k, spec.scalar_cochains[0].values + h[head] - h[tail])
        spec = dataclasses.replace(spec, scalar_cochains=[w, spec.scalar_cochains[1]])
        spec_path, cochain_path = tmp_path / "spec.json", tmp_path / "cochain.json"
        spec_path.write_text(json.dumps(dump_foliation_spec(spec)))
        cochain = {"torus": {"d": 2, "m": 16}, "cochain": scalar_cochain_to_json(w)}
        cochain_path.write_text(json.dumps(cochain))

        code = main(["pipeline", str(spec_path), "--epsilon", "0.02"])
        rep = json.loads(capsys.readouterr().out)
        assert [s["stage"] for s in rep["stages"]][-3:] == [
            "circle_map",
            "submersion",
            "fiber_census",
        ]
        census = rep["stages"][-1]
        assert census["components"] == [3, 3, 3, 2, 2, 2, 3, 3, 3, 3]
        assert not census["constant"]
        assert code == 3 and rep["ok"] is False

        code = main(["tischler", str(cochain_path), "--epsilon", "0.02"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["fiber_components"] == census["components"]
        assert rep["submersion"]["pass"]
        assert code == 3 and rep["ok"] is False


def test_rationalize_config_validation():
    with pytest.raises(InputError):
        RationalizeConfig(0.0)
    with pytest.raises(InputError):
        RationalizeConfig(0.1, max_denominator=0)
