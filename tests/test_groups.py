import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import ga_and_angle, r_from_chart, random_sl, rotation, sup
from slnfib.cli import main
from slnfib.errors import InputError, SingularInput
from slnfib.groups import (
    GA,
    GAElement,
    chart_length,
    iwasawa_sln,
    iwasawa_sln_ank,
)
from slnfib.foliation import ga_suspension, product_foliation
from slnfib.linalg import qr_positive
from slnfib.serialize import dump_foliation_spec


def ga_rows(rng, size):
    """size random GA rows (a, b), log a and b standard normal."""
    return np.stack([np.exp(rng.normal(size=size)), rng.normal(size=size)], axis=-1)


class TestGA:
    def test_embed_identity(self):
        assert sup(GA().matrix(np.array([1.0, 0.0])) - np.eye(2)) < 1e-15

    def test_embed_formula(self):
        # (1/sqrt(4)) [[4, 2], [0, 1]] = [[2, 1], [0, 1/2]]
        assert sup(GA().matrix(np.array([4.0, 2.0])) - [[2, 1], [0, 0.5]]) < 1e-12

    def test_embed_unipotent(self):
        assert sup(GA().matrix(np.array([1.0, 3.0])) - [[1, 3], [0, 1]]) < 1e-12

    def test_embed_unimodular(self, rng):
        dets = np.linalg.det(GA().matrix(ga_rows(rng, 50)))
        assert np.abs(dets - 1.0).max() < 1e-12

    def test_mul_composes_affine_maps(self):
        assert GA().mul(np.array([2.0, 1.0]), np.array([3.0, 0.0])).tolist() == [6, 1]

    def test_inv(self):
        # the affine inverse (1/a, -b/a) of (2, 1), on both sides
        g, inv = np.array([2.0, 1.0]), np.array([0.5, -0.5])
        assert GA().mul(g, inv).tolist() == [1, 0]
        assert GA().mul(inv, g).tolist() == [1, 0]

    def test_group_axiom(self):
        g = np.array([2.0, 1.0])
        prod = GA().mul(g, np.array([1.0 / g[0], -g[1] / g[0]]))
        assert abs(prod[0] - 1) < 1e-15 and abs(prod[1]) < 1e-15

    def test_embed_is_homomorphism(self, rng):
        g, h = ga_rows(rng, 500), ga_rows(rng, 500)
        lhs = GA().matrix(GA().mul(g, h))
        rhs = GA().matrix(g) @ GA().matrix(h)
        assert sup(lhs - rhs) < 1e-9

    def test_rejects_nonpositive_scale(self):
        # GAElement is a plain row; the suspension refuses it by require_ga
        # before it takes any power a ** t
        for a in (0.0, -1.5, math.nan):
            with pytest.raises(InputError) as e:
                ga_suspension(8, GAElement(a, 1.0))
            assert str(e.value) == f"holonomy image 0 has a={a:.12g}, not in GA"

    def test_row_and_ga_element_dump_the_same_spec(self):
        assert GAElement(1.5, 0.3) == (1.5, 0.3)
        row = json.dumps(dump_foliation_spec(ga_suspension(8, (1.5, 0.3))))
        named = json.dumps(dump_foliation_spec(ga_suspension(8, GAElement(1.5, 0.3))))
        assert row == named

    def test_power_interpolates(self):
        # the suspension's developing map at z = 2 of m = 4 is g ** (1/2)
        g = GAElement(4.0, 6.0)
        half = ga_suspension(4, g).developing_value(np.array([2]))
        full = GA().mul(half, half)
        assert abs(full[0] - g.a) < 1e-12 and abs(full[1] - g.b) < 1e-12


class TestIwasawaSL2:
    """g = GA().matrix((a, b)) @ rotation(theta), read off iwasawa_sln_ank."""

    def test_pure_rotation(self):
        a, b, theta = ga_and_angle(rotation(0.9))
        assert abs(a - 1) < 1e-12 and abs(b) < 1e-12
        assert abs(theta - 0.9) < 1e-12

    def test_inverse_of_embed(self):
        a, b, theta = ga_and_angle(np.array([[2, 1], [0, 0.5]]))
        assert abs(a - 4) < 1e-12 and abs(b - 2) < 1e-12
        assert min(theta, 2 * math.pi - theta) < 1e-12

    def test_reconstruction_random(self, rng):
        for _ in range(200):
            g = random_sl(2, rng)
            a, b, theta = ga_and_angle(g)
            assert sup(GA().matrix(np.array([a, b])) @ rotation(theta) - g) < 1e-9

    def test_factor_uniqueness(self, rng):
        g = random_sl(2, rng)
        a, b, theta = ga_and_angle(g)
        a2, b2, theta2 = ga_and_angle(GA().matrix(np.array([a, b])) @ rotation(theta))
        assert abs(a2 - a) < 1e-10 and abs(b2 - b) < 1e-10
        assert abs(theta2 - theta) < 1e-10

    def test_projection_section_identity(self):
        th = 2 * math.pi * np.arange(360) / 360
        got = ga_and_angle(np.array([rotation(t) for t in th.tolist()]))[2]
        assert np.abs(got - th).max() < 1e-12

    def test_rejects_non_unimodular(self):
        with pytest.raises(SingularInput):
            iwasawa_sln_ank(np.array([[2.0, 0.0], [0.0, 1.0]]))


class TestIwasawaSLn:
    def test_identity(self):
        k, chart = iwasawa_sln(np.eye(4))
        assert sup(k - np.eye(4)) < 1e-12
        assert sup(chart) < 1e-12

    @pytest.mark.parametrize("n,expect", [(2, 2), (3, 5), (4, 9), (6, 20)])
    def test_chart_length(self, n, expect):
        assert chart_length(n) == expect

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_roundtrip(self, n, rng):
        for _ in range(100):
            g = random_sl(n, rng)
            k, chart = iwasawa_sln(g)
            assert chart.shape == (chart_length(n),)
            assert sup(k @ r_from_chart(n, chart) - g) < 1e-9
            assert sup(k.T @ k - np.eye(n)) < 1e-9
            assert abs(np.linalg.det(k) - 1.0) < 1e-8

    def test_chart_roundtrip_from_coordinates(self, rng):
        # decompose(recompose(chart)) = chart on random charts
        n = 3
        for _ in range(50):
            q = qr_positive(random_sl(n, rng))[0]
            chart = rng.normal(size=chart_length(n)) * 0.5
            k, got = iwasawa_sln(q @ r_from_chart(n, chart))
            assert sup(k - q) < 1e-8
            assert sup(got - chart) < 1e-8

    def test_ank_roundtrip(self, rng):
        # g = R . K, so g . K^T = R is its own K . R factorization with K = I
        for n in (2, 3):
            g = random_sl(n, rng)
            k, chart = iwasawa_sln_ank(g)
            k_r, chart_r = iwasawa_sln(g @ k.T)
            assert sup(k_r - np.eye(n)) < 1e-9
            assert sup(chart_r - chart) < 1e-9

    def test_rejects_non_unimodular(self):
        with pytest.raises(SingularInput):
            iwasawa_sln(np.diag([2.0, 1.0, 1.0]))


def decompose_split(capsys, tmp_path, g):
    """The chart and the (g1, g2) split that `decompose` reports for g."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.tolist()))
    assert main(["decompose", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    return rep["chart"], rep["split"]["g1"], rep["split"]["g2"]


class TestFactorSplit:
    # the split is the AN-left chart cut before its last two coordinates,
    # the R^2 factor
    def test_n2_all_in_g2(self, capsys, tmp_path, rng):
        chart, g1, g2 = decompose_split(capsys, tmp_path, random_sl(2, rng))
        assert g1 == [] and g2 == chart and len(g2) == 2

    def test_n3(self, capsys, tmp_path, rng):
        chart, g1, g2 = decompose_split(capsys, tmp_path, random_sl(3, rng))
        assert len(g1) == 3 and g2 == chart[3:5]

    def test_n4_sizes(self, capsys, tmp_path, rng):
        chart, g1, g2 = decompose_split(capsys, tmp_path, random_sl(4, rng))
        assert (len(g1), len(g2)) == (7, 2)
        assert len(chart) == chart_length(4) == 9 and g1 + g2 == chart

    def test_abelian_coordinates_vary_independently(self, rng):
        # perturbing only the R^2 factor, the last two chart coordinates,
        # moves only those
        n = 3
        g = random_sl(n, rng)
        k, chart = iwasawa_sln(g)
        chart[-2] += 0.125
        chart[-1] -= 0.25
        got = iwasawa_sln(k @ r_from_chart(n, chart))[1]
        for i, (a, b) in enumerate(zip(got, chart)):
            assert abs(a - b) < 1e-9, i


def test_circle_angle_canonical_idempotent():
    # the circle factor of a rotation by 7.5 pi is that rotation, an angle
    # in [0, 2 pi), and charting it again gives the same angle
    theta = ga_and_angle(rotation(7.5 * math.pi))[2]
    assert 0 <= theta < 2 * math.pi and abs(theta - 1.5 * math.pi) < 1e-12
    assert abs(ga_and_angle(rotation(theta))[2] - theta) < 1e-12


def test_nan_determinant_is_not_unimodular(monkeypatch):
    monkeypatch.setattr(np.linalg, "det", lambda a: math.nan)
    with pytest.raises(SingularInput, match="det nan, not in SL"):
        iwasawa_sln(np.eye(2))


@st.composite
def sl_stacks(draw):
    """A stack of 1..5 SL(n) matrices, n = 2..4: exp of traceless matrices
    with entries in [-0.5, 0.5]."""
    n, size = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    entries = st.floats(-0.5, 0.5, allow_nan=False, allow_infinity=False)
    count = size * n * n
    x = np.reshape(draw(st.lists(entries, min_size=count, max_size=count)), (size, n, n))
    x -= np.trace(x, axis1=1, axis2=2)[:, None, None] / n * np.eye(n)
    return scipy.linalg.expm(x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sl_stacks())
def test_stacked_ank_charts_rebuild_each_matrix(g):
    # each slice checked on its own, away from the QR path: R from the chart
    # alone, K = R^-1 g by a linear solve
    n = g.shape[-1]
    k, charts = iwasawa_sln_ank(g)
    assert k.shape == g.shape and charts.shape == (len(g), chart_length(n))
    for g_i, k_i, chart in zip(g, k, charts):
        r = r_from_chart(n, chart)
        assert np.array_equal(r, np.triu(r)) and np.all(np.diag(r) > 0)
        k_solved = np.linalg.solve(r, g_i)
        assert np.abs(k_solved @ k_solved.T - np.eye(n)).max() <= 1e-12
        assert abs(np.linalg.det(k_solved) - 1.0) <= 1e-12
        assert np.abs(r @ k_i - g_i).max() <= 1e-12


@pytest.mark.parametrize("m, hol", [(8, (2.0, 0.0)), (8, (1.5, 0.3)), (16, (1.5, 0.3))])
def test_window_charts_match_single_matrix_charts_bit_for_bit(m, hol):
    spec = product_foliation(ga_suspension(m, GAElement(*hol)))
    stack = np.concatenate([spec.developing, spec.holonomy])
    k, charts = iwasawa_sln_ank(stack)
    assert len(charts) == (3 * m) ** 2 + 2
    for g, k_g, chart in zip(stack, k, charts):
        k_1, chart_1 = iwasawa_sln_ank(g)
        assert np.array_equal(chart_1, chart) and np.array_equal(k_1, k_g)


def test_first_non_unimodular_slice_raises():
    stack = np.array([np.eye(2), np.diag([2.0, 1.0]), np.zeros((2, 2))])
    with pytest.raises(SingularInput, match="matrix has det 2, not in SL"):
        iwasawa_sln_ank(stack)
