import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from slnfib.cli import main
from slnfib.complexes import (
    ScalarCochain1,
    coordinate_cochain,
    homology_generators,
    period,
    torus_complex,
)
from slnfib.errors import BudgetInfeasible, CheckFailed, InputError, NonGenericValue
from slnfib.foliation import ga_suspension, linear_torus_spec, product_foliation
from slnfib.groups import GAElement
from slnfib.serialize import scalar_cochain_to_json
from slnfib.tischler import (
    CircleMap,
    RationalizeConfig,
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
        gens = homology_generators(w.complex)
        rz = rationalize(w, gens, RationalizeConfig(0.01))
        assert rz.periods == [Fraction(1), Fraction(17, 12)]
        assert rz.q == 12
        assert rz.sup_change <= 0.01
        assert abs(float(period(rz.cochain, gens[1])) - 17 / 12) < 1e-12

    def test_already_rational_untouched(self, t2_8):
        w = coordinate_cochain(t2_8, 0)
        gens = homology_generators(t2_8)
        rz = rationalize(w, gens, RationalizeConfig(0.01))
        assert rz.periods == [Fraction(1), Fraction(0)]
        assert rz.q == 1
        assert rz.sup_change == 0.0

    def test_correction_preserves_closedness(self):
        w = mixed_cochain(8)
        gens = homology_generators(w.complex)
        rz = rationalize(w, gens, RationalizeConfig(0.01))
        from slnfib.complexes import coboundary

        assert max(abs(float(x)) for x in coboundary(rz.cochain)) < 1e-12

    def test_rejects_non_closed(self, t2_8):
        w = coordinate_cochain(t2_8, 0)
        values = [w(u, v) for u, v in t2_8.edges]
        values[3] = values[3] + Fraction(1, 7)
        bad = ScalarCochain1(t2_8, values)
        with pytest.raises(InputError):
            rationalize(bad, homology_generators(t2_8), RationalizeConfig(0.01))

    def test_budget_infeasible(self):
        w = mixed_cochain(8)
        gens = homology_generators(w.complex)
        with pytest.raises(BudgetInfeasible):
            rationalize(w, gens, RationalizeConfig(1e-9, max_denominator=100))

    def test_bad_duals_rejected(self, t2_8):
        w = coordinate_cochain(t2_8, 0)
        gens = homology_generators(t2_8)
        duals = [coordinate_cochain(t2_8, 0)] * 2
        with pytest.raises(InputError):
            rationalize(w, gens, RationalizeConfig(0.01), duals=duals)


class TestIntegrate:
    def test_matches_closed_form(self):
        # q w' = 12 dx + 17 dy; the circle map is (12x + 17y)/m mod 1
        m = 16
        w = mixed_cochain(m)
        gens = homology_generators(w.complex)
        rz = rationalize(w, gens, RationalizeConfig(0.01))
        cm = integrate_to_circle(rz)
        assert cm.periods == [12, 17]
        cov = w.complex.covering
        for v in range(w.complex.n_vertices):
            x, y = w.complex.vertex_coords[v]
            expect = (12 * x + 17 * y) / m % 1.0
            diff = abs(cm.values[v] - expect) % 1.0
            assert min(diff, 1.0 - diff) < 1e-9

    def test_integer_periods_required(self, t2_8):
        w = coordinate_cochain(t2_8, 0)
        rz = rationalize(w, homology_generators(t2_8), RationalizeConfig(0.01))
        cm = integrate_to_circle(rz)
        assert cm.periods == [1, 0]
        assert all(0.0 <= x < 1.0 for x in cm.values.values())


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
        rz = rationalize(w, homology_generators(k), RationalizeConfig(0.01))
        return integrate_to_circle(rz), rz.cochain

    def test_coordinate_level_is_one_circle(self):
        cm, w = self.circle_map_dx(5)
        census = fiber_census(cm, w, 0.5)
        assert census.component_count == 1
        # the vertical line x = 0.5 crosses one horizontal and one diagonal
        # edge per row
        assert census.crossing_edges == 2 * 5

    def test_coprime_periods_single_component(self):
        k = torus_complex(2, 8)
        w = coordinate_cochain(k, 0).scale(2) + coordinate_cochain(k, 1).scale(3)
        rz = rationalize(w, homology_generators(k), RationalizeConfig(0.01))
        cm = integrate_to_circle(rz)
        assert cm.periods == [2, 3]
        for lvl in generic_levels(cm, 5):
            assert fiber_census(cm, rz.cochain, lvl).component_count == 1

    def test_multiple_components_for_scaled_map(self):
        # periods (2, 0): the fiber splits into two parallel circles
        k = torus_complex(2, 8)
        w = coordinate_cochain(k, 0).scale(2)
        rz = rationalize(w, homology_generators(k), RationalizeConfig(0.01))
        cm = integrate_to_circle(rz)
        for lvl in generic_levels(cm, 5):
            assert fiber_census(cm, rz.cochain, lvl).component_count == 2

    def test_vertex_level_rejected(self):
        cm, w = self.circle_map_dx(5)
        with pytest.raises(NonGenericValue):
            fiber_census(cm, w, 0.0)

    def test_generic_levels_avoid_vertex_images(self):
        cm, _ = self.circle_map_dx(5)
        images = {round(x, 12) for x in cm.values.values()}
        for lvl in generic_levels(cm):
            assert all(abs((lvl - v + 0.5) % 1.0 - 0.5) > 1e-6 for v in images)

    def test_circle_fiber_is_one_point(self):
        # T^1 has no triangles: every edge is loose and crossings are points
        w = coordinate_cochain(torus_complex(1, 4), 0)
        _, _, sub, censuses = tischler_fibration(w, RationalizeConfig(0.01))
        assert sub.passed()
        assert [c.component_count for c in censuses] == [1] * 10
        assert {c.crossing_edges for c in censuses} == {1}

    def test_inconsistent_lift_fails_degree_check(self):
        cm, w = self.circle_map_dx(5)
        cm.values[7] = (cm.values[7] + 0.3) % 1.0
        with pytest.raises(CheckFailed, match=r"meets edge .* of its 2 triangles"):
            for lvl in generic_levels(cm):
                fiber_census(cm, w, lvl)

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


def test_rationalize_config_validation():
    with pytest.raises(InputError):
        RationalizeConfig(0.0)
    with pytest.raises(InputError):
        RationalizeConfig(0.1, max_denominator=0)
