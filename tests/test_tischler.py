import collections
import dataclasses
import itertools
import json
import math
import random
import re
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
from slnfib.errors import BudgetInfeasible, CheckFailed, InputError
from slnfib.foliation import ga_suspension, linear_torus_spec, product_foliation
from slnfib.groups import GAElement
from slnfib.serialize import (
    dump_foliation_spec,
    load_scalar_cochain,
    scalar_cochain_to_json,
)
from slnfib import tischler
from slnfib.tischler import (
    LEVELS,
    CircleMap,
    FiberCensus,
    RationalizeConfig,
    RationalizedCochain,
    check_submersion,
    continued_fraction_approx,
    fiber_census,
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

        w = rz.cochain
        assert max(abs(float(x)) for x in coboundary(w.complex, w.values)) < 1e-12

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

    @pytest.mark.parametrize(
        "coeffs, epsilon, periods",
        [
            # the convergents 11/8 and 21/11 share q = 88; 11 keeps both in budget
            ((1.37, 1.91), 0.01, [Fraction(15, 11), Fraction(21, 11)]),
            ((-1.37, 1.91), 0.01, [Fraction(-15, 11), Fraction(21, 11)]),
            # 4 * 0.125 is a tie, which goes to the even 0; the convergents
            # 0 and 1/6 share q = 6, and no q < 4 takes 0.15 within 0.125
            ((0.125, 0.15), 0.125, [Fraction(0), Fraction(1, 4)]),
            # ceil(1/(2 epsilon)) is 2^1073: the convergents 1 and 1/2 stay
            ((1.0, 0.5), 5e-324, [Fraction(1), Fraction(1, 2)]),
            ((1.0, math.sqrt(2)), math.inf, [Fraction(1), Fraction(1)]),
            # no q < 2 qualifies, so the convergents 1 and 1/2 stay, not the
            # nearest halves 3/2 and 1/2
            ((1.4, 0.5), 0.45, [Fraction(1), Fraction(1, 2)]),
        ],
        ids=["dense", "negative", "tie", "least-epsilon", "infinite-epsilon", "convergents"],
    )
    def test_least_common_denominator(self, coeffs, epsilon, periods):
        k = torus_complex(2, 8)
        w = coordinate_cochain(k, 0).scale(coeffs[0]) + coordinate_cochain(k, 1).scale(coeffs[1])
        rz = rationalize(w, RationalizeConfig(epsilon))
        assert rz.periods == periods
        assert rz.q == math.lcm(*(r.denominator for r in periods))


class TestIntegrate:
    @pytest.mark.parametrize(
        "d, m, coeffs, periods, bump",
        [
            (1, 7, [math.sqrt(2)], [17], False),
            (2, 16, [1.0, math.sqrt(2)], [12, 17], False),
            (3, 5, [1.0, math.sqrt(2), math.sqrt(3)], [19, 27, 33], False),
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
        assert cm.heights.shape == (t2_8.n_vertices,)
        assert cm.wraps.shape == cm.low.shape == cm.high.shape == (len(t2_8.edges),)
        assert cm.weight.shape == (len(t2_8.edges),)
        slots = (cm.low, cm.high, cm.weight, cm.corner, cm.slot_edge, cm.offset)
        for lift in (cm.heights, cm.wraps) + slots:
            assert lift.dtype == np.int64 and not lift.flags.writeable

    def test_tiny_negative_value_reduces_to_zero(self, capsys, tmp_path):
        # T^1, m = 4: the axis walk sums 0.3 - 0.1 - 0.2 to -2.8e-17 at
        # vertex 3, and (-2.8e-17) % 1.0 is 1.0; the map holds 0.0 there,
        # and its census, levels and report are those of the map with 1.0
        k = torus_complex(1, 4)
        w = ScalarCochain1(k, [0.3, -0.1, -0.2, 0.0])
        rz = rationalize(w, RationalizeConfig(0.01))
        cm = integrate_to_circle(rz)
        assert cm.values.tolist() == [0.0, 0.3, 0.19999999999999998, 0.0]
        assert cm.heights.tolist() == [0, 322122547, 214748364, 0]
        assert cm.wraps.tolist() == [0, 0, 0, 0]
        censuses = [fiber_census(cm, lvl) for lvl in LEVELS]
        expect = [(0, 0)] * 7 + [(2, 2)] * 3
        assert [(c.component_count, c.crossing_edges) for c in censuses] == expect
        path = tmp_path / "t1.json"
        cochain = scalar_cochain_to_json(w)
        path.write_text(json.dumps({"torus": {"d": 1, "m": 4}, "cochain": cochain}))
        assert main(["tischler", str(path), "--epsilon", "0.01"]) == 3
        assert json.loads(capsys.readouterr().out) == {
            "fiber_components": [0] * 7 + [2] * 3,
            "ok": False,
            "periods": ["0"],
            "pullback_periods": [0],
            "q": 1,
            "submersion": {"failing_simplices": [3], "pass": False},
            "sup_change": 6.938893903907228e-18,
        }


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


def consistent_map(k, rng, slope):
    """A random circle map on k, with q = 1, that lifts: random vertex
    values f and the closed integer wraps slope . (z_t - z_s) + g(t) - g(s)
    of a random integer vertex function g, so that w(s, t) = f(t) - f(s) +
    wrap.  Returns the map, built by CircleMap.lift, and the wraps as
    Python ints."""
    f = rng.random(k.n_vertices)
    g = rng.integers(-3, 4, k.n_vertices)
    tail, head = k.edges.T
    wraps = (k.lifts[:, 1] - k.lifts[:, 0]) @ np.asarray(slope) + g[head] - g[tail]
    w = ScalarCochain1(k, f[head] - f[tail] + wraps)
    periods = [k.covering.m * int(a) for a in slope]
    return CircleMap.lift(w, f, periods, 1), wraps.tolist()


def integer_corners(f, wraps, k, t):
    """The lifted corners of triangle t, by vertex, in Python ints."""
    n = tischler.HEIGHT_SCALE
    heights = [math.floor(x * n) for x in f.values.tolist()]
    (u, v, x), (uv, vx, _) = k.triangles[t].tolist(), k.triangle_edges[t].tolist()
    return {
        u: heights[u],
        v: heights[v] + n * wraps[uv],
        x: heights[x] + n * (wraps[uv] + wraps[vx]),
    }


class TestFiberCensus:
    def circle_map_dx(self, m):
        k = torus_complex(2, m)
        w = coordinate_cochain(k, 0)
        rz = rationalize(w, RationalizeConfig(0.01))
        return integrate_to_circle(rz), rz.cochain

    def test_coordinate_level_is_one_circle(self):
        cm, _ = self.circle_map_dx(5)
        census = fiber_census(cm, 0.5)
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
        for lvl in LEVELS:
            assert fiber_census(cm, lvl).component_count == 1

    def test_multiple_components_for_scaled_map(self):
        # periods (2, 0): the fiber splits into two parallel circles
        k = torus_complex(2, 8)
        w = coordinate_cochain(k, 0).scale(2)
        rz = rationalize(w, RationalizeConfig(0.01))
        cm = integrate_to_circle(rz)
        for lvl in LEVELS:
            assert fiber_census(cm, lvl).component_count == 2

    def test_vertex_level_counts_the_level_above(self):
        # the images of dx are 0, 0.2, ..., 0.8; at c = 0.0 the census
        # counts the vertical circle just right of x = 0, which crosses one
        # horizontal and one diagonal edge per row
        cm, w = self.circle_map_dx(5)
        census = fiber_census(cm, 0.0)
        assert (census.component_count, census.crossing_edges) == (1, 2 * 5)
        # a bump of 0.3 at grid vertex (2, 2) makes it a local maximum at
        # 0.7: the level just above it misses it, and the one just below
        # would add a small circle around it
        k = cm.complex
        h = np.zeros(k.n_vertices)
        h[k.covering.base_index((2, 2))] = 0.3
        tail, head = k.edges.T
        rz = rationalize(ScalarCochain1(k, w.values + h[head] - h[tail]), RationalizeConfig(0.01))
        bumped = integrate_to_circle(rz)
        peak = bumped.values[k.covering.base_index((2, 2))]
        assert fiber_census(bumped, peak).component_count == 1
        assert fiber_census(bumped, peak - 1e-6).component_count == 2

    def test_levels_are_ten_fixed_decimals(self):
        # the rule of bench/oracles.py census_levels: (i + 1/2) / 10 past
        # 0.261799 on the circle, rounded to 12 digits
        assert LEVELS == (
            0.311799, 0.411799, 0.511799, 0.611799, 0.711799,
            0.811799, 0.911799, 0.011799, 0.111799, 0.211799,
        )
        assert len(set(LEVELS)) == 10

    @pytest.mark.parametrize("count", [1, 4, 10])
    def test_generic_levels_are_distinct(self, count):
        # T^1 with vertex images on the first count levels in sorted order:
        # the census still reads the ten distinct LEVELS, none moved off an
        # image, and every fiber is one point
        images = [0.0] + sorted(LEVELS)[:count] + [0.95]
        k = torus_complex(1, len(images))
        w = ScalarCochain1(k, np.diff(images).tolist() + [1 - images[-1]])
        cm, _, sub, censuses = tischler_fibration(w, RationalizeConfig(0.01))
        assert cm.values.tolist() == images and sub.passed()
        levels = [c.value for c in censuses]
        assert levels == list(LEVELS) and len(set(levels)) == 10
        assert [(c.component_count, c.crossing_edges) for c in censuses] == [(1, 1)] * 10

    def test_vertex_on_every_level(self):
        # T^1, m = 11: vertex i > 0 has the i-th level in sorted order as its
        # image, and the last edge closes the turn from 0.911799 to 0; a
        # level on an image counts the level just above it, one point
        images = [0.0] + sorted(LEVELS)
        k = torus_complex(1, 11)
        w = ScalarCochain1(k, np.diff(images).tolist() + [1 - 0.911799])
        cm, _, sub, censuses = tischler_fibration(w, RationalizeConfig(0.01))
        assert cm.values.tolist() == images and sub.passed()
        assert [c.component_count for c in censuses] == [1] * 10
        for census in censuses:
            above = fiber_census(cm, census.value + 1e-6)
            assert (census.component_count, census.crossing_edges) == (
                above.component_count,
                above.crossing_edges,
            )

    def test_circle_fiber_is_one_point(self):
        # T^1 has no triangles: every edge is loose and crossings are points
        w = coordinate_cochain(torus_complex(1, 4), 0)
        _, _, sub, censuses = tischler_fibration(w, RationalizeConfig(0.01))
        assert sub.passed()
        assert [c.component_count for c in censuses] == [1] * 10
        assert {c.crossing_edges for c in censuses} == {1}

    @pytest.mark.parametrize(
        "vertex, rise, message",
        [
            (0.0, 1e7, "level 0.1 has 30000000 edge crossings, over the cap 4194304"),
            (math.nan, 0.25, "circle map value at vertex 1 is not finite"),
        ],
        ids=["over-cap", "nan-lift"],
    )
    def test_census_refused_before_expanding(self, vertex, rise, message):
        # T^1, m = 3: three loose edges that each rise 1e7 from images 0 cross
        # 1e7 levels each; a NaN image is refused when the map is built
        k = torus_complex(1, 3)
        w = ScalarCochain1(k, [rise] * 3)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cm = CircleMap.lift(w, [0.0, vertex, 0.0], [30000000], 1)
            fiber_census(cm, 0.1)

    @pytest.mark.parametrize("d, m, seed", [(2, 3, 0), (2, 4, 1), (3, 3, 2)])
    def test_refused_total_is_summed_in_triangle_slot_order(self, d, m, seed):
        # a map that lifts, with wraps of 2e5 to 5e5 per unit step: the
        # refused total is the exact sum, in Python ints, of the crossings
        # of every slot of every triangle, in (triangle, slot) order
        rng = np.random.default_rng(seed)
        k = torus_complex(d, m)
        slope = rng.integers(200_000, 500_000, d) * rng.choice([-1, 1], d)
        cm, wraps = consistent_map(k, rng, slope)
        c, n = 0.123, tischler.HEIGHT_SCALE
        level = math.floor(c * n)

        def crossings(a, b):  # of the levels level + 1/2 + j n between a and b
            lo, hi = sorted((a, b))
            return (hi - level - 1) // n - (lo - level - 1) // n

        total = 0
        for t, (u, v, x) in enumerate(k.triangles.tolist()):
            lift = integer_corners(cm, wraps, k, t)
            total += sum(crossings(lift[a], lift[b]) for a, b in ((u, v), (v, x), (u, x)))
        assert total > tischler.MAX_CROSSINGS
        message = f"level {c} has {total} edge crossings, over the cap {tischler.MAX_CROSSINGS}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            fiber_census(cm, c)

    def test_nan_lift_on_triangles_refused(self):
        # a value of w that is not finite on an edge of the triangles: the
        # map refuses the first such edge
        cm, w = self.circle_map_dx(3)
        for bad in (math.nan, math.inf):
            values = w.values.copy()
            values[diagonal_edge(cm.complex)] = bad
            u, v = next(
                edge
                for edge, x in zip(cm.complex.edges.tolist(), values.tolist())
                if not math.isfinite(x)
            )
            message = f"edge increment mismatch nan on ({u},{v})"
            with pytest.raises(CheckFailed, match=f"^{re.escape(message)}$"):
                CircleMap.lift(ScalarCochain1(cm.complex, values), cm.values, cm.periods, cm.q)

    def test_inconsistent_lift_refused_by_the_map(self):
        # a vertex moved by 0.3: the first edge at it, in edge order, is named
        cm, w = self.circle_map_dx(5)
        values = cm.values.copy()
        values[7] = (values[7] + 0.3) % 1.0
        u, v = next(
            (u, v)
            for (u, v), x in zip(cm.complex.edges.tolist(), w.values.tolist())
            if abs((x - (values[v] - values[u]) + 0.5) % 1.0 - 0.5) > 1e-9
        )
        assert 7 in (u, v)
        message = f"edge increment mismatch 3.000e-01 on ({u},{v})"
        with pytest.raises(CheckFailed, match=f"^{re.escape(message)}$"):
            CircleMap.lift(w, values, cm.periods, cm.q)

    def test_lift_tolerance_scales_with_q(self):
        # q = 4 on T^1, m = 3, the map 0, 1/4, 1/2 with one wrap on edge
        # (2, 0): a residual of 2 RESIDUAL_TOL there lies under q times the
        # tolerance and lifts, one just over q times it is refused
        k, tol = torus_complex(1, 3), tischler.RESIDUAL_TOL

        def lift(residual):
            w = ScalarCochain1(k, [0.0625, 0.0625, (0.5 + residual) / 4])
            return CircleMap.lift(w, [0.0, 0.25, 0.5], [1], 4)

        assert lift(2 * tol).wraps.tolist() == [0, 0, 1]
        message = "edge increment mismatch 4.040e-09 on (2,0)"
        with pytest.raises(CheckFailed, match=f"^{re.escape(message)}$"):
            lift(4.04 * tol)

    @pytest.mark.parametrize(
        "extra, error, message",
        [
            (1, CheckFailed, "circle map lift does not close on triangle {triangle}"),
            (
                2 ** 31,
                InputError,
                "circle map wraps 2147483648 times on edge ({u},{v}), "
                "beyond the integer height range",
            ),
        ],
        ids=["open", "over-range"],
    )
    def test_lift_that_does_not_close_is_refused(self, extra, error, message):
        # dx at m = 4 (exact quarters) with extra turns on one diagonal edge:
        # the edge still fits the map mod 1, but its triangles do not close,
        # or its wrap leaves the integer heights
        cm, w = self.circle_map_dx(4)
        k = cm.complex
        e = diagonal_edge(k)
        values = w.values.copy()
        values[e] += extra
        triangle = next(
            tuple(t)
            for t, edges in zip(k.triangles.tolist(), k.triangle_edges.tolist())
            if e in edges
        )
        u, v = k.edges[e].tolist()
        message = message.format(triangle=triangle, u=u, v=v)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            CircleMap.lift(ScalarCochain1(k, values), cm.values, cm.periods, cm.q)

    @pytest.mark.parametrize(
        "d, m", [(d, m) for d in (1, 2, 3) for m in (3, 4, 8)] + [(3, 12)]
    )
    def test_frame_slot_is_the_position_of_its_edge(self, d, m):
        # a random map that lifts gives every order of the lifted corners;
        # each role row holds one slot of each triangle, and the corner rows
        # order its integer corners: the long slot runs from the lowest to
        # the highest, the short slots from the lowest to the middle one and
        # on to the highest
        rng = np.random.default_rng(10 * d + m)
        k = torus_complex(d, m)
        cm, wraps = consistent_map(k, rng, rng.integers(-2, 3, d))
        shape = (3, len(k.triangles))
        assert cm.slot_edge.shape == cm.corner.shape == cm.offset.shape == shape
        assert np.array_equal(np.sort(cm.slot_edge, 0), np.sort(k.triangle_edges.T, 0))
        n, edges = tischler.HEIGHT_SCALE, k.edges.tolist()
        for t in range(0, len(k.triangles), max(1, len(k.triangles) // 200)):
            lift = integer_corners(cm, wraps, k, t)
            low, mid, high = sorted(lift.values())
            assert cm.corner[:, t].tolist() == [low, mid, high]
            for role, ends in enumerate([(low, high), (low, mid), (mid, high)]):
                e, moved = cm.slot_edge[role, t], n * cm.offset[role, t]
                s, x = edges[e]
                assert sorted((lift[s], lift[x])) == list(ends)
                assert (cm.low[e] + moved, cm.high[e] + moved) == ends

    HALF_DIGIT_FORM = (0.9886863694964385, 1.6376747351482408)

    def test_half_digit_crossings_repro(self):
        # the form moved to its convergents 87/88 and 18/11 by dx_k
        # corrections: crossing positions of this q = 88 map land halfway
        # between 9th-digit values, where the two triangles on an edge used
        # to round apart
        a, b = self.HALF_DIGIT_FORM
        k = torus_complex(2, 5)
        w = coordinate_cochain(k, 0).scale(a) + coordinate_cochain(k, 1).scale(b)
        periods = [Fraction(87, 88), Fraction(18, 11)]
        moved = w
        for axis, (r, p) in enumerate(zip(periods, (a, b))):
            moved = moved + coordinate_cochain(k, axis).scale(float(r) - p)
        cm = integrate_to_circle(RationalizedCochain(moved, periods, 88, 0.0))
        assert cm.periods == [87, 144]
        assert [fiber_census(cm, lvl).component_count for lvl in LEVELS] == [3] * 10

    def test_half_digit_form_takes_the_least_common_denominator(self, capsys, tmp_path):
        # the same form through the CLI: q = 47 keeps both periods within
        # 0.01, where the convergents' lcm is 88
        a, b = self.HALF_DIGIT_FORM
        k = torus_complex(2, 5)
        w = coordinate_cochain(k, 0).scale(a) + coordinate_cochain(k, 1).scale(b)
        path = tmp_path / "repro.json"
        path.write_text(
            json.dumps({"torus": {"d": 2, "m": 5}, "cochain": scalar_cochain_to_json(w)})
        )
        code = main(["tischler", str(path), "--epsilon", "0.01"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["periods"] == ["46/47", "77/47"]
        assert rep["q"] == 47
        assert rep["pullback_periods"] == [46, 77]
        assert rep["fiber_components"] == [1] * 10
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


def spread_coefficients(d):
    """d nonzero coefficients, each of |c| in [0.5, 1], [1.5, 2.5] or [4, 6]
    on its own axis, in a drawn order and with drawn signs, so that every
    sum over a nonempty set of them is at least 0.5 in size."""
    ranges = [(0.5, 1.0), (1.5, 2.5), (4.0, 6.0)][:d]
    sizes = st.tuples(*[st.floats(lo, hi) for lo, hi in ranges])
    signs = st.tuples(*[st.sampled_from([-1.0, 1.0])] * d)
    return st.tuples(sizes, signs, st.permutations(range(d))).map(
        lambda t: tuple(t[1][i] * t[0][i] for i in t[2])
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    d=st.sampled_from([1, 2, 2, 3, 3]),
    m=st.integers(3, 8),
    bump=st.booleans(),
    epsilon=st.sampled_from([0.005, 0.01, 0.02, 0.05, 0.1]),
)
def test_rationalize_takes_the_least_common_denominator(data, d, m, bump, epsilon):
    # Oracle: the least q under the convergents' lcm whose nearest
    # multiples of 1/q put every float period within epsilon, by a plain
    # loop in exact arithmetic; the convergents when there is none.  Each
    # edge of the linear part moves a set of axes, so its increment is at
    # least 0.5/m in size, and rationalization moves it by at most d
    # epsilon/m <= 0.3/m; a vertex bump under 0.09/m then keeps the sign of
    # every increment, so the map stays regular and its fiber has
    # gcd(pullback periods) components at every level.
    coeffs = data.draw(spread_coefficients(d))
    k = torus_complex(d, m)
    w = coordinate_cochain(k, 0).scale(coeffs[0])
    for axis in range(1, d):
        w = w + coordinate_cochain(k, axis).scale(coeffs[axis])
    if bump:
        h = np.zeros(k.n_vertices)
        h[data.draw(st.integers(0, k.n_vertices - 1))] = data.draw(st.floats(-0.09, 0.09)) / m
        tail, head = k.edges.T
        w = ScalarCochain1(k, w.values + h[head] - h[tail])
    raw = [period(w, axis) for axis in range(d)]
    convergents = [continued_fraction_approx(p, epsilon, 10 ** 6) for p in raw]
    top = math.lcm(*(r.denominator for r in convergents))
    rz = rationalize(w, RationalizeConfig(epsilon))
    exact = [Fraction(p) for p in raw]
    for q in range(1, top):
        periods = [Fraction(round(q * p), q) for p in exact]
        if all(abs(p - r) <= epsilon for p, r in zip(exact, periods)):
            break
    else:
        q, periods = top, convergents
    assert (rz.q, rz.periods) == (q, periods)
    assert rz.q <= top
    assert all(abs(p - r) <= epsilon for p, r in zip(exact, rz.periods))
    assert rz.sup_change <= epsilon
    pullback = [int(q * r) for r in periods]
    cm = integrate_to_circle(rz)
    counts = [fiber_census(cm, lvl).component_count for lvl in LEVELS]
    assert counts == [math.gcd(*pullback)] * len(LEVELS)


def loop_census(f, w, value):
    """The per-triangle union-find census on float lifts that the array
    census replaced, kept as its reference: on a map that lifts, at levels
    1e-6 or more from every image, the same result."""
    c = float(value) % 1.0
    complex = f.complex
    step = [f.q * float(x) for x in w.values]
    for vtx, x in enumerate(f.values.tolist()):
        if abs((float(x) - c + 0.5) % 1.0 - 0.5) < 1e-9:
            raise ValueError(f"level {c} hits the image of vertex {vtx}")

    def crossed(start, inc):
        lo, hi = (start, start + inc) if inc > 0 else (start + inc, start)
        return range(math.floor(lo - c) + 1, math.ceil(hi - c))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    incidences = complex.triangle_edges.tolist()
    on_edge = collections.Counter(i for incidence in incidences for i in incidence)
    parent, degree = {}, {}
    edges = [tuple(e) for e in complex.edges.tolist()]
    for i, (s, t) in enumerate(edges):
        if not on_edge[i]:
            for k in crossed(float(f.values[s]), step[i]):
                parent[i, k] = (i, k)
                degree[i, k] = 0
    triangles = complex.triangles.tolist()
    values = [[step[i] for i in inc] for inc in incidences]
    for tri, incidence, (uv, vx, _) in zip(triangles, incidences, values):
        u, v, x = tri
        lift = {u: float(f.values[u])}
        lift[v] = lift[u] + uv
        lift[x] = lift[v] + vx
        lo = min(lift.values())
        if not crossed(lo, max(lift.values()) - lo):
            continue
        local = {}
        for i in incidence:
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


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@example(  # moved vertices, refused by the map
    d=2,
    m=5,
    coeffs=(Fraction(3, 4), Fraction(-5, 2), Fraction(3, 4)),
    scale=1,
    moves=[(73444, -0.129), (445161, -0.094)],
    levels=[0.871],
)
@example(  # T^3 with a moved vertex, refused by the map
    d=3,
    m=4,
    coeffs=(Fraction(3, 2), Fraction(-1, 3), Fraction(5, 4)),
    scale=8,
    moves=[(31337, 0.25)],
    levels=[0.3],
)
@example(  # two moves of one vertex that cancel: the map still lifts
    d=2,
    m=5,
    coeffs=(Fraction(3, 4), Fraction(-5, 2), Fraction(3, 4)),
    scale=1,
    moves=[(7, 0.25), (7, -0.25)],
    levels=[0.871],
)
@example(  # every vertex of T^1 moved by a half turn: the map still lifts
    d=1,
    m=3,
    coeffs=(Fraction(5, 2), Fraction(0), Fraction(0)),
    scale=8,
    moves=[(0, 0.5), (1, 0.5), (2, 0.5)],
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
@example(  # a vertex moved by 6e-8: under 1e-6, over the residual tolerance
    d=1,
    m=3,
    coeffs=(Fraction(1), Fraction(0), Fraction(0)),
    scale=1,
    moves=[(0, 5.960464477539063e-08)],
    levels=[0.0],
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
    # how far each edge is from fitting the moved map mod 1, against the
    # tolerance of the map's increment check
    tail, head = k.edges.T
    misfit = np.abs((values - cm.values)[head] - (values - cm.values)[tail])
    misfit = np.abs(misfit - np.rint(misfit))
    if misfit.max() > tischler.RESIDUAL_TOL * max(1, cm.q):
        with pytest.raises(CheckFailed, match="^edge increment mismatch"):
            CircleMap.lift(rz.cochain, values, cm.periods, cm.q)
        return
    moved = CircleMap.lift(rz.cochain, values, cm.periods, cm.q)
    # levels 1e-6 or more from every image, where the float lifts of the
    # loop census cross as the integer heights do
    images = moved.values.tolist()
    for value in levels + list(LEVELS):
        if all(abs((value - x + 0.5) % 1.0 - 0.5) >= 1e-6 for x in images):
            expect = loop_census(moved, rz.cochain, value)
            assert fiber_census(moved, value) == expect


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


N = tischler.HEIGHT_SCALE
# a height within 2 of a multiple of N, on either side of the levels
# top - 1/2 + j N for top near 0 or N, or any height
HEIGHT = st.builds(lambda j, d: j * N + d, st.integers(-4, 4), st.integers(-2, 2)) | (
    st.integers(-4 * N, 4 * N)
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@example(ends=[], top=1)
@example(  # negative heights, an edge with no rise, ends one off a level
    ends=[(-3 * N - 7, 2 * N), (5, 5), (N, N + 1), (N - 1, 3 * N)],
    top=N,
)
@given(
    ends=st.lists(st.tuples(HEIGHT, HEIGHT).map(sorted), max_size=8),
    top=st.sampled_from([1, 2, N - 1, N]) | st.integers(1, N),
)
def test_run_numbering_matches_unique(ends, top):
    # intervals (low, high) of integer heights, some ends on either side of
    # a level top - 1/2 + j N; the crossings of each, listed level by level
    # in Python ints, are numbered as np.unique numbers the (edge, j) rows
    low, high = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    count, base = tischler._number_crossings(low, high, top)
    rows = [
        (e, j)
        for e, (a, b) in enumerate(ends)
        for j in range(-6, 7)
        if 2 * a < 2 * (top + j * N) - 1 < 2 * b
    ]
    assert count.tolist() == [sum(e == i for e, _ in rows) for i in range(len(ends))]
    numbers = [int(base[e]) + j for e, j in rows]
    keys, number = np.unique(
        np.array(rows, dtype=np.int64).reshape(-1, 2), axis=0, return_inverse=True
    )
    assert numbers == number.ravel().tolist() == list(range(len(rows)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    d=st.sampled_from([1, 2, 2, 3]),
    m=st.integers(3, 6),
    coeffs=st.tuples(*[small_coefficient(6, 4)] * 3).filter(any),
    bump=st.sampled_from([0.0, 0.3, 2.0]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_integer_rises_close_and_sum_to_the_periods(d, m, coeffs, bump, seed):
    # a linear form plus the coboundary of a random vertex bump: the map's
    # heights are floor(N f(v)) in [0, N), its rises H(v) - H(u) + N k close
    # exactly on every triangle, and every loop along axis a rises by N
    # times the pullback period P_a, all walked here in Python ints
    m = min(m, 4) if d == 3 else m
    k = torus_complex(d, m)
    w = coordinate_cochain(k, 0).scale(float(coeffs[0]))
    for axis in range(1, d):
        w = w + coordinate_cochain(k, axis).scale(float(coeffs[axis]))
    h = np.random.default_rng(seed).uniform(-bump, bump, k.n_vertices)
    tail, head = k.edges.T
    rz = rationalize(ScalarCochain1(k, w.values + h[head] - h[tail]), RationalizeConfig(0.01))
    cm = integrate_to_circle(rz)
    heights = cm.heights.tolist()
    assert heights == [math.floor(N * x) for x in cm.values.tolist()]
    assert all(0 <= h < N for h in heights)
    rise = [
        heights[v] - heights[u] + N * wrap
        for (u, v), wrap in zip(k.edges.tolist(), cm.wraps.tolist())
    ]
    for uv, vx, ux in k.triangle_edges.tolist():
        assert rise[uv] + rise[vx] == rise[ux]
    step = {}
    for i, (u, v) in enumerate(k.edges.tolist()):
        step[u, v], step[v, u] = rise[i], -rise[i]
    coords = k.vertex_coords.tolist()
    for axis in range(d):
        for start in range(k.n_vertices):
            total, v = 0, start
            for _ in range(m):
                z = list(coords[v])
                z[axis] = (z[axis] + 1) % m
                nxt = k.covering.base_index(tuple(z))
                total += step[v, nxt]
                v = nxt
            assert total == N * cm.periods[axis]


def bfs_components(n, pairs):
    """Components of the graph on nodes 0..n-1, by breadth-first search."""
    adjacent = [[] for _ in range(n)]
    for u, v in pairs:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = collections.deque([start])
        while queue:
            for v in adjacent[queue.popleft()]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return count


def count_components(n, pairs):
    lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return tischler._count_components(n, np.minimum(lo, hi), np.maximum(lo, hi))


@given(
    isolated=st.integers(0, 5),
    cycles=st.lists(st.integers(2, 300), max_size=4),
    dense=st.tuples(st.integers(0, 80), st.integers(0, 240)),
    repeats=st.integers(0, 20),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_component_count_matches_breadth_first_search(
    isolated, cycles, dense, repeats, seed
):
    # a multigraph of isolated nodes, cycles (a T^2 level is a union of
    # cycles) and a random part of degree at most 6 (as at a T^3 level),
    # with repeated pairs, under a seeded node numbering and pair order
    order = random.Random(seed)
    pairs, n = [], isolated
    for length in cycles:
        pairs += [(n + i, n + (i + 1) % length) for i in range(length)]
        n += length
    size, tries = dense
    degree = [0] * size
    for _ in range(tries if size > 1 else 0):
        u, v = order.sample(range(size), 2)
        if degree[u] < 6 and degree[v] < 6:
            degree[u] += 1
            degree[v] += 1
            pairs.append((n + u, n + v))
    n += size
    for _ in range(repeats if pairs else 0):
        pairs.append(order.choice(pairs)[:: order.choice((1, -1))])
    label = list(range(n))
    order.shuffle(label)
    pairs = [(label[u], label[v]) for u, v in pairs]
    order.shuffle(pairs)
    assert count_components(n, pairs) == bfs_components(n, pairs)


@pytest.mark.parametrize(
    "n, pairs, components",
    [
        (0, [], 0),
        (4, [], 4),
        (6, [(1, 4)], 5),
        # each node hooks under the one before: a chain as deep as the path
        (200, [(i, i + 1) for i in range(199)], 1),
        # the same path with its hooks in the other order
        (200, [(i + 1, i) for i in reversed(range(199))], 1),
        # a star whose centre has the largest number: one write wins on the
        # centre, so each round hooks one leaf
        (41, [(i, 40) for i in range(40)], 1),
        # two stars and an isolated node
        (9, [(0, 7), (2, 7), (5, 7), (1, 8), (3, 8), (6, 8)], 3),
    ],
    ids=["empty", "no_pairs", "one_pair", "path", "path_reversed", "star", "stars"],
)
def test_component_count_examples(n, pairs, components):
    assert bfs_components(n, pairs) == components
    assert count_components(n, pairs) == components


def test_fibration_calls_census_through_module_attribute(monkeypatch):
    # bench/tracer.py rebinds tischler.fiber_census to count crossings
    calls, census = [], tischler.fiber_census

    def counting(f, value):
        out = census(f, value)
        calls.append((f, value, out.crossing_edges))
        return out

    monkeypatch.setattr(tischler, "fiber_census", counting)
    cm, _, _, censuses = tischler_fibration(mixed_cochain(8), RationalizeConfig(0.01))
    assert all(f is cm for f, _, _ in calls)
    assert [value for _, value, _ in calls] == list(LEVELS)
    assert [n for _, _, n in calls] == [c.crossing_edges for c in censuses]
    assert all(isinstance(n, int) and n > 0 for _, _, n in calls)


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
        first, second = spec.cochain.T
        w = ScalarCochain1(k, first + h[head] - h[tail])
        spec = dataclasses.replace(spec, cochain=np.stack([w.values, second], axis=1))
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


def test_tischler_run_builds_no_foliation_tables():
    # vertex_coords, lifts and incidence are built on first read, and only
    # the foliation checks read them
    k = torus_complex(2, 16)
    w = coordinate_cochain(k, 0) + coordinate_cochain(k, 1).scale(math.sqrt(2))
    obj = {"torus": {"d": 2, "m": 16}, "cochain": scalar_cochain_to_json(w)}
    loaded = load_scalar_cochain(json.loads(json.dumps(obj)))
    tischler_fibration(loaded, RationalizeConfig(0.01))
    assert not {"vertex_coords", "lifts", "incidence"} & set(vars(loaded.complex))


def test_rationalize_config_validation():
    with pytest.raises(InputError):
        RationalizeConfig(0.0)
    with pytest.raises(InputError):
        RationalizeConfig(0.1, max_denominator=0)
