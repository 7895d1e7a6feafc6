import math
from fractions import Fraction

import pytest

from slnfib.algebra import AlgebraElement, OffDiag
from slnfib.complexes import (
    Cycle,
    LieCochain1,
    ScalarCochain1,
    coboundary,
    coordinate_cochain,
    holonomy_residual,
    homology_generators,
    max_coboundary,
    period,
    torus_complex,
)
from slnfib.errors import DimensionError, InputError
from slnfib.linalg import FMatrix


def euler_characteristic(k):
    return k.n_vertices - len(k.edges) + len(k.triangles) - len(k.tetrahedra)


class TestTorusComplex:
    def test_t2_m3_counts(self):
        k = torus_complex(2, 3)
        assert (k.n_vertices, len(k.edges), len(k.triangles)) == (9, 27, 18)
        assert euler_characteristic(k) == 0

    def test_t2_m4_euler(self):
        k = torus_complex(2, 4)
        assert (k.n_vertices, len(k.edges), len(k.triangles)) == (16, 48, 32)
        assert euler_characteristic(k) == 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_euler_characteristic_vanishes(self, d):
        for m in (3, 4, 5):
            assert euler_characteristic(torus_complex(d, m)) == 0

    def test_generator_count(self):
        for d in (1, 2, 3):
            assert len(homology_generators(torus_complex(d, 3))) == d

    def test_manifold_like_2d(self):
        # a closed surface: every edge lies in exactly two triangles
        k = torus_complex(2, 4)
        assert all(len(ts) == 2 for ts in k.edge_triangles)

    def test_t3_has_tetrahedra(self):
        k = torus_complex(3, 3)
        assert len(k.tetrahedra) == 6 * 27
        assert k.top_simplices is k.tetrahedra

    def test_rejects_small_m(self):
        with pytest.raises(InputError):
            torus_complex(2, 2)

    def test_rejects_bad_dim(self):
        with pytest.raises(DimensionError):
            torus_complex(4, 3)


class TestEdgeIndex:
    def test_orient_both_ways(self, t2_8):
        for i, (u, v) in enumerate(t2_8.edges):
            assert t2_8.orient(u, v) == (i, 1)
            assert t2_8.orient(v, u) == (i, -1)
        with pytest.raises(InputError):
            t2_8.orient(0, 0)

    def test_triangle_incidence_names_its_edges(self, t2_8):
        for t, (a, b, c) in enumerate(t2_8.triangles):
            incidence = t2_8.triangle_edges[t]
            got = [set(t2_8.edges[i]) for i, _ in incidence]
            assert got == [{a, b}, {b, c}, {a, c}]
            assert sorted(t2_8.top_edges[t]) == sorted(i for i, _ in incidence)

    def test_values_keyed_against_the_stored_orientation_are_negated(self, t2_8):
        u, v = t2_8.edges[7]
        base = [Fraction(0)] * len(t2_8.edges)
        w = ScalarCochain1(t2_8, t2_8.indexed({(v, u): Fraction(2, 3)}, base))
        assert w.values[7] == Fraction(-2, 3)
        assert (w(v, u), w(u, v)) == (Fraction(2, 3), Fraction(-2, 3))
        assert base == [0] * len(t2_8.edges)

    def test_cochain_needs_one_value_per_edge(self, t2_8):
        with pytest.raises(InputError):
            ScalarCochain1(t2_8, [Fraction(0)] * (len(t2_8.edges) - 1))


class TestEdgeLifts:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_each_edge_lifts_by_a_unit_step(self, d):
        for m in (3, 4, 5):
            k = torus_complex(d, m)
            assert len(k.edge_lifts) == len(k.edges)
            steps = []
            for (u, v), lift in zip(k.edges, k.edge_lifts):
                zu, zv = k.vertex_coords[u], k.vertex_coords[v]
                e = tuple((b - a) % m for a, b in zip(zu, zv))
                assert set(e) <= {0, 1} and any(e)
                assert lift == (zu, tuple(a + x for a, x in zip(zu, e)))
                steps.append(e)
            for ax in range(d):
                assert coordinate_cochain(k, ax).values == [
                    Fraction(e[ax], m) for e in steps
                ]


class TestCoboundary:
    def test_gradient_is_closed(self, rng):
        k = torus_complex(2, 5)
        f = {v: rng.normal() for v in range(k.n_vertices)}
        w = ScalarCochain1(k, [f[v] - f[u] for u, v in k.edges])
        assert max(abs(x) for x in coboundary(w)) < 1e-12

    def test_coordinate_cochain_closed(self, t2_8):
        assert max_coboundary(coordinate_cochain(t2_8, 0)) == 0
        assert max_coboundary(coordinate_cochain(t2_8, 1)) == 0

    def test_perturbation_localized(self, t2_8):
        w = coordinate_cochain(t2_8, 0)
        e = t2_8.edges[5]
        values = [w(u, v) for u, v in t2_8.edges]
        values[5] = values[5] + Fraction(1, 3)
        w2 = ScalarCochain1(t2_8, values)
        bad = [t for t, x in enumerate(coboundary(w2)) if x != 0]
        assert sorted(bad) == sorted(t2_8.triangles_of_edge(*e))


class TestPeriod:
    def test_dx_periods(self, t2_8):
        gens = homology_generators(t2_8)
        dx = coordinate_cochain(t2_8, 0)
        assert period(dx, gens[0]) == 1
        assert period(dx, gens[1]) == 0

    def test_mixed_cochain_period(self, t2_8):
        gens = homology_generators(t2_8)
        w = coordinate_cochain(t2_8, 0).scale(1.0) + coordinate_cochain(
            t2_8, 1
        ).scale(math.sqrt(2))
        assert abs(period(w, gens[1]) - math.sqrt(2)) < 1e-12

    def test_orientation_antisymmetry(self, t2_8):
        gens = homology_generators(t2_8)
        w = coordinate_cochain(t2_8, 0)
        assert period(w, gens[0].reversed()) == -period(w, gens[0])

    def test_homologous_cycles_agree(self, t2_8):
        # x-loop at row 0 and x-loop at row 3 are homologous
        dx = coordinate_cochain(t2_8, 0)
        cov = t2_8.covering
        loop_at = lambda y: Cycle(
            [
                (cov.base_index((i, y)), cov.base_index((i + 1, y)))
                for i in range(cov.m)
            ]
        )
        assert period(dx, loop_at(0)) == period(dx, loop_at(3))

    def test_broken_cycle_rejected(self):
        with pytest.raises(InputError):
            Cycle([(0, 1), (2, 3)])


def ga_like(t, s):
    return FMatrix([[t, s], [0.0, -t]])


class TestFlatness:
    def test_abelian_closed_cochain_flat(self, t2_8):
        # values in a fixed abelian line of sl(2): brackets vanish, dw = 0
        dx = coordinate_cochain(t2_8, 0)
        w = LieCochain1(
            t2_8,
            [ga_like(float(dx(u, v)), 0.0) for u, v in t2_8.edges],
        )
        assert max(r.sup() for r in holonomy_residual(w)) < 1e-12

    def test_log_derived_cochain_flat(self, product_spec):
        assert max(r.sup() for r in holonomy_residual(product_spec.cochain)) < 1e-8

    def test_perturbed_edge_flagged(self, product_spec):
        eps = 0.01
        k = product_spec.complex
        e = k.edges[17]
        bump = FMatrix([[0.0, eps], [0.0, 0.0]])
        w2 = product_spec.cochain.with_edge(*e, product_spec.cochain(*e) + bump)
        affected = k.triangles_of_edge(*e)
        hol = holonomy_residual(w2)
        for t in affected:
            assert hol[t].sup() > 1e-8

    def test_residual_zero_elsewhere(self, product_spec):
        eps = 0.01
        k = product_spec.complex
        e = k.edges[17]
        bump = FMatrix([[0.0, eps], [0.0, 0.0]])
        w2 = product_spec.cochain.with_edge(*e, product_spec.cochain(*e) + bump)
        affected = set(k.triangles_of_edge(*e))
        hol = holonomy_residual(w2)
        for t in range(len(k.triangles)):
            if t not in affected:
                assert hol[t].sup() < 1e-8


class TestLieCochain:
    def test_orientation_antisymmetry(self, product_spec):
        u, v = product_spec.complex.edges[3]
        assert (product_spec.cochain(u, v) + product_spec.cochain(v, u)).sup() < 1e-15

    def test_mixed_dimensions_rejected(self, t2_8):
        vals = [FMatrix([[0.0, 0.0], [0.0, 0.0]]) for _ in t2_8.edges]
        vals[0] = FMatrix([[0.0] * 3] * 3)
        with pytest.raises(InputError):
            LieCochain1(t2_8, vals)
