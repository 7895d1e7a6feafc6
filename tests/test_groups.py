import math

import numpy as np
import pytest

from conftest import random_sl
from slnfib.errors import DimensionError, InputError, SingularInput
from slnfib.groups import (
    CircleAngle,
    FactorSplit,
    GAElement,
    IwasawaFactors,
    chart_length,
    circle_project,
    factor_split,
    ga_embed,
    ga_inv,
    ga_mul,
    ga_power,
    iwasawa_recompose,
    iwasawa_sl2,
    iwasawa_sln,
    iwasawa_sln_ank,
    rotation,
    section,
)
from slnfib.linalg import FMatrix, qr_positive


class TestGA:
    def test_embed_identity(self):
        assert ga_embed(GAElement(1, 0)).allclose(FMatrix.identity(2), 1e-15)

    def test_embed_formula(self):
        # (1/sqrt(4)) [[4, 2], [0, 1]] = [[2, 1], [0, 1/2]]
        assert ga_embed(GAElement(4, 2)).allclose(FMatrix([[2, 1], [0, 0.5]]), 1e-12)

    def test_embed_unipotent(self):
        assert ga_embed(GAElement(1, 3)).allclose(FMatrix([[1, 3], [0, 1]]), 1e-12)

    def test_embed_unimodular(self, rng):
        for _ in range(50):
            g = GAElement(math.exp(rng.normal()), rng.normal())
            assert abs(ga_embed(g).det() - 1.0) < 1e-12

    def test_mul_composes_affine_maps(self):
        assert ga_mul(GAElement(2, 1), GAElement(3, 0)) == GAElement(6, 1)

    def test_inv(self):
        assert ga_inv(GAElement(2, 1)) == GAElement(0.5, -0.5)

    def test_group_axiom(self):
        g = GAElement(2, 1)
        prod = ga_mul(g, ga_inv(g))
        assert abs(prod.a - 1) < 1e-15 and abs(prod.b) < 1e-15

    def test_embed_is_homomorphism(self, rng):
        for _ in range(500):
            g = GAElement(math.exp(rng.normal()), rng.normal())
            h = GAElement(math.exp(rng.normal()), rng.normal())
            lhs = ga_embed(ga_mul(g, h))
            rhs = ga_embed(g) @ ga_embed(h)
            assert lhs.dist(rhs) < 1e-9

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(InputError):
            GAElement(0.0, 1.0)

    def test_power_interpolates(self):
        g = GAElement(4.0, 6.0)
        half = ga_power(g, 0.5)
        full = ga_mul(half, half)
        assert abs(full.a - g.a) < 1e-12 and abs(full.b - g.b) < 1e-12


class TestIwasawaSL2:
    def test_pure_rotation(self):
        b, ang = iwasawa_sl2(rotation(0.9))
        assert abs(b.a - 1) < 1e-12 and abs(b.b) < 1e-12
        assert abs(ang.theta - 0.9) < 1e-12

    def test_inverse_of_embed(self):
        b, ang = iwasawa_sl2(FMatrix([[2, 1], [0, 0.5]]))
        assert abs(b.a - 4) < 1e-12 and abs(b.b - 2) < 1e-12
        assert min(ang.theta, 2 * math.pi - ang.theta) < 1e-12

    def test_reconstruction_random(self, rng):
        for _ in range(200):
            g = random_sl(2, rng)
            b, ang = iwasawa_sl2(g)
            assert (ga_embed(b) @ section(ang)).dist(g) < 1e-9

    def test_factor_uniqueness(self, rng):
        g = random_sl(2, rng)
        b, ang = iwasawa_sl2(g)
        b2, ang2 = iwasawa_sl2(ga_embed(b) @ section(ang))
        assert abs(b2.a - b.a) < 1e-10 and abs(b2.b - b.b) < 1e-10
        assert abs(ang2.theta - ang.theta) < 1e-10

    def test_projection_section_identity(self):
        for k in range(360):
            th = 2 * math.pi * k / 360
            got = circle_project(section(CircleAngle(th))).theta
            assert abs(got - th) < 1e-12

    def test_rejects_non_unimodular(self):
        with pytest.raises(SingularInput):
            iwasawa_sl2(FMatrix([[2.0, 0.0], [0.0, 1.0]]))


class TestIwasawaSLn:
    def test_identity(self):
        f = iwasawa_sln(FMatrix.identity(4))
        assert f.k.allclose(FMatrix.identity(4), 1e-12)
        assert max(abs(x) for x in f.chart) < 1e-12

    @pytest.mark.parametrize("n,expect", [(2, 2), (3, 5), (4, 9), (6, 20)])
    def test_chart_length(self, n, expect):
        assert chart_length(n) == expect

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_roundtrip(self, n, rng):
        for _ in range(100):
            g = random_sl(n, rng)
            f = iwasawa_sln(g)
            assert len(f.chart) == chart_length(n)
            assert iwasawa_recompose(f).dist(g) < 1e-9
            assert (f.k.transpose() @ f.k).dist(FMatrix.identity(n)) < 1e-9
            assert abs(f.k.det() - 1.0) < 1e-8

    def test_chart_roundtrip_from_coordinates(self, rng):
        # decompose(recompose(chart)) = chart on random charts
        n = 3
        for _ in range(50):
            q, _ = qr_positive(random_sl(n, rng))
            chart = tuple(rng.normal(size=chart_length(n)) * 0.5)
            f = iwasawa_sln(iwasawa_recompose(IwasawaFactors(q, chart)))
            assert f.k.dist(q) < 1e-8
            assert max(abs(a - b) for a, b in zip(f.chart, chart)) < 1e-8

    def test_ank_roundtrip(self, rng):
        # g = R . K, so g . K^T = R is its own K . R factorization with K = I
        for n in (2, 3):
            g = random_sl(n, rng)
            f = iwasawa_sln_ank(g)
            r = iwasawa_sln(g @ f.k.transpose())
            assert r.k.dist(FMatrix.identity(n)) < 1e-9
            assert max(abs(a - b) for a, b in zip(r.chart, f.chart)) < 1e-9

    def test_rejects_non_unimodular(self):
        with pytest.raises(SingularInput):
            iwasawa_sln(FMatrix(np.diag([2.0, 1.0, 1.0])))


class TestFactorSplit:
    def test_n2_all_in_g2(self):
        s = factor_split(2)
        assert s.g1_coords == ()
        assert s.g2_coords == (0, 1)

    def test_n3(self):
        s = factor_split(3)
        assert len(s.g1_coords) == 3
        assert s.g2_coords == (3, 4)

    def test_n4_sizes(self):
        s = factor_split(4)
        assert (len(s.g1_coords), 2) == (7, 2)
        assert s.chart_len == 9

    def test_abelian_coordinates_vary_independently(self, rng):
        # perturbing only the g2 chart coordinates moves only those
        n = 3
        g = random_sl(n, rng)
        f = iwasawa_sln(g)
        s = factor_split(n)
        chart = list(f.chart)
        chart[s.g2_coords[0]] += 0.125
        chart[s.g2_coords[1]] -= 0.25
        from slnfib.groups import IwasawaFactors

        g2 = iwasawa_recompose(IwasawaFactors(f.k, tuple(chart)))
        f2 = iwasawa_sln(g2)
        for i, (a, b) in enumerate(zip(f2.chart, chart)):
            assert abs(a - b) < 1e-9, i


def test_circle_angle_canonical_idempotent():
    a = CircleAngle(7.5 * math.pi)
    assert 0 <= a.theta < 2 * math.pi
    assert CircleAngle(a.theta).theta == a.theta
