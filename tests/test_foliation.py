import dataclasses
import json
import math
import sys

import numpy as np
import pytest
import scipy.linalg

from conftest import bumped, ga_and_angle, sup
from slnfib import complexes, foliation, groups, linalg
from slnfib.cli import main
from slnfib.complexes import ScalarCochain1, coboundary, period
from slnfib.errors import CheckFailed, InputError
from slnfib.foliation import (
    LieFoliationSpec,
    check_equivariance,
    check_mc,
    ga_suspension,
    linear_torus_spec,
    product_foliation,
    project_foliation,
)
from slnfib.groups import GA, SL, GAElement, Rk
from slnfib.linalg import matrix_log
from slnfib.serialize import dump_foliation_spec


def samples(spec):
    """(grid point, developing value) of every row of the window."""
    return list(zip(map(tuple, spec.window.tolist()), spec.developing))


class TestLinearSpec:
    def test_mc_passes(self):
        spec = linear_torus_spec(8, [[1.0, 0.0], [0.0, 1.0]])
        rep = check_mc(spec)
        assert rep.flat and rep.surjective

    def test_abelian_spec_has_no_product_structure(self):
        # abelian specs reach the pipeline's abelian-bypass stage instead
        spec = linear_torus_spec(8, [[1.0, 0.5], [0.25, 1.0]])
        for which in (1, 2):
            with pytest.raises(InputError, match="no product structure on group R2"):
                project_foliation(spec, which)

    def test_rank_deficient_flagged(self):
        # (dx, 0) is flat but nowhere surjective as an R^2 form
        spec = linear_torus_spec(8, [[1.0, 0.0], [0.0, 0.0]])
        rep = check_mc(spec)
        assert rep.flat
        assert not rep.surjective
        assert len(rep.failing_vertices) == spec.complex.n_vertices

    def test_equivariance_linear_sqrt2(self):
        alpha = math.sqrt(2)
        spec = linear_torus_spec(8, [[1.0, alpha]])
        rep = check_equivariance(spec)
        assert rep.max_deviation < 1e-12

    def test_perturbed_holonomy_detected(self):
        alpha = math.sqrt(2)
        spec = linear_torus_spec(8, [[1.0, alpha]])
        spec2 = LieFoliationSpec(
            complex=spec.complex,
            group=Rk(1),
            holonomy=[(1.0,), (alpha + 0.125,)],
            window=spec.window,
            developing=spec.developing,
            cochain=spec.cochain,
        )
        rep = check_equivariance(spec2)
        assert abs(rep.max_deviation - 0.125) < 1e-9

    def test_trivial_holonomy_periodic_developing(self):
        spec = linear_torus_spec(8, [[0.0, 0.0]])
        assert check_equivariance(spec).max_deviation < 1e-15


class TestGASuspension:
    def test_consistency(self):
        base = ga_suspension(8, GAElement(2.0, 0.0))
        assert base.validate_consistency() < 1e-12

    def test_flat(self):
        base = ga_suspension(8, GAElement(3.0, 1.0))
        rep = check_mc(base)
        assert rep.flat

    @pytest.mark.parametrize("a, b", [(1.5, 0.3), (1.0, 0.7)], ids=["power", "unipotent"])
    def test_samples_follow_the_one_parameter_subgroup_bit_for_bit(self, a, b):
        # (a^t, b (a^t - 1) / (a - 1)) at t = z / m, with Python's float power;
        # (1, t b) on the unipotent subgroup a = 1
        m = 8
        spec = ga_suspension(m, GAElement(a, b))
        for (z,), (got_a, got_b) in samples(spec):
            t = z / m
            at = a ** t if a != 1.0 else 1.0
            expect = b * (at - 1.0) / (a - 1.0) if a != 1.0 else t * b
            assert (got_a.hex(), got_b.hex()) == (at.hex(), expect.hex())


def test_non_finite_developing_step_names_its_edge(t2_8):
    # D(zu)^-1 D(zv) overflows on edge 3 only
    ends = np.tile(np.eye(2), (len(t2_8.edges), 2, 1, 1))
    ends[3] = [np.diag([1e-200, 1e200]), np.diag([1e200, 1e-200])]
    u, v = t2_8.edges[3]
    with pytest.raises(InputError, match=f"^developing step on edge {u}-{v} is not finite$"):
        foliation.edge_logarithms(t2_8, ends)


def brute_force_equivariance(spec):
    """(max deviation, pairs) of D(z + m e_g) against h(g) . D(z), one
    (sample, generator) pair at a time, with each group law written out."""
    m = spec.complex.covering.m
    stored = dict(samples(spec))
    worst, count = 0.0, 0
    for z, g in stored.items():
        for gen, h in enumerate(spec.holonomy):
            shifted = tuple(c + m * (axis == gen) for axis, c in enumerate(z))
            if shifted not in stored:
                continue
            if spec.group == GA():  # (a, b) o (a', b') = (a a', a b' + b)
                expect = np.array([h[0] * g[0], h[0] * g[1] + h[1]])
            elif isinstance(spec.group, SL):
                expect = np.array(h) @ np.array(g)
            else:
                expect = np.array(h) + np.array(g)
            worst = max(worst, float(np.abs(stored[shifted] - expect).max()))
            count += 1
    return worst, count


EQUIVARIANCE_SPECS = {
    # spec, a stored target point of an exact pair and the entry moved there
    "ga": (lambda: ga_suspension(8, GAElement(3.0, 1.0)), (8,), (1,)),
    "sl2": (
        lambda: product_foliation(ga_suspension(8, GAElement(2.0, 0.0))),
        (8, 0),
        (1, 0),
    ),
    "r2": (
        lambda: linear_torus_spec(8, [[1.0, math.sqrt(2)], [0.3, 1.0]]),
        (8, 0),
        (0,),
    ),
}


class TestEquivarianceOracle:
    @pytest.mark.parametrize("name", sorted(EQUIVARIANCE_SPECS))
    def test_stacked_check_equals_the_pair_loop(self, name):
        spec = EQUIVARIANCE_SPECS[name][0]()
        rep = check_equivariance(spec)
        assert (rep.max_deviation, rep.checked_pairs) == brute_force_equivariance(spec)
        assert rep.checked_pairs > 0 and rep.max_deviation < 1e-9

    @pytest.mark.parametrize("name", sorted(EQUIVARIANCE_SPECS))
    def test_a_moved_sample_shows_its_move(self, name):
        # the pair into the target is exact, and the entry moves from a
        # value that delta = 2^-10 moves exactly (for SL(2), entry (1, 0) of
        # a diagonal sample, which keeps det = 1)
        make, target, entry = EQUIVARIANCE_SPECS[name]
        spec = make()
        delta = 2.0 ** -10
        moved = spec.developing.copy()
        row = spec.window.tolist().index(list(target))
        moved[(row,) + entry] += delta
        spec = dataclasses.replace(spec, developing=moved)
        rep = check_equivariance(spec)
        assert rep.max_deviation >= delta
        assert (rep.max_deviation, rep.checked_pairs) == brute_force_equivariance(spec)

    @pytest.mark.parametrize("name", sorted(EQUIVARIANCE_SPECS))
    def test_a_window_without_deck_pairs_is_refused(self, name):
        spec = EQUIVARIANCE_SPECS[name][0]()
        base = spec.window.max(axis=1) < spec.complex.covering.m
        spec = dataclasses.replace(
            spec, window=spec.window[base], developing=spec.developing[base]
        )
        with pytest.raises(InputError, match="developing window too small"):
            check_equivariance(spec)


class TestProductFoliation:
    def test_equivariance(self, product_spec):
        rep = check_equivariance(product_spec)
        assert rep.max_deviation < 1e-9

    def test_mc(self, product_spec):
        rep = check_mc(product_spec)
        assert rep.flat and rep.surjective

    def test_fibers_split_into_base_and_angle(self, product_spec):
        # the GA x S^1 factors of D(x, y) recover (base developing, circle
        # position)
        m = product_spec.complex.covering.m
        base = ga_suspension(m, GAElement(2.0, 0.0))
        for z, g in samples(product_spec)[:50]:
            a, b, theta = ga_and_angle(g)
            d0 = base.developing_value((z[0],))
            assert abs(a - d0[0]) < 1e-9 and abs(b - d0[1]) < 1e-9
            expect = (2 * math.pi * z[1] / m) % (2 * math.pi)
            diff = abs(theta - expect)
            assert min(diff, 2 * math.pi - diff) < 1e-9

    def test_degenerate_base_gives_rotation_family(self):
        base = ga_suspension(8, GAElement(1.0, 0.0))
        prod = product_foliation(base)
        for z, g in samples(prod)[:20]:
            a, b, _ = ga_and_angle(g)
            assert abs(a - 1.0) < 1e-9 and abs(b) < 1e-9

    def test_rejects_non_ga_base(self):
        spec = linear_torus_spec(8, [[1.0, 0.0]])
        with pytest.raises(InputError):
            product_foliation(spec)

    def test_coarse_subdivision_is_refused_by_its_step(self):
        # a rotation step of 2 pi / 4 puts edge steps outside the log ball;
        # the constructor names the subdivision, not the edge
        with pytest.raises(InputError) as e:
            product_foliation(ga_suspension(4, GAElement(1.5, 0.3)))
        assert str(e.value) == (
            "subdivision m=4 too coarse for edge logarithms "
            "(rotation step 2*pi/4); use m >= 8"
        )
        assert str(e.value.__cause__).startswith("matrix_log of developing step on edge ")

    @pytest.mark.parametrize("scale, flat", [(0.5, True), (1.0, True), (2.0, False), (math.nan, False)])
    def test_contract_is_the_flatness_verdict_of_check_mc(
        self, monkeypatch, product_spec, scale, flat
    ):
        """The constructor refuses its spec exactly when check_mc reads the
        holonomy residual as not flat, and takes no surjectivity SVD."""
        def residual(complex, values):
            out = np.zeros((len(complex.triangles), 2, 2))
            out[7, 0, 1] = scale * foliation.HOLONOMY_TOL
            return out

        monkeypatch.setattr(foliation, "holonomy_residual", residual)
        assert check_mc(product_spec).flat is flat
        svd_calls, svd = [], np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda *args, **kw: svd_calls.append(1) or svd(*args, **kw)
        )
        base = ga_suspension(8, GAElement(1.5, 0.3))
        if flat:
            product_foliation(base)
        else:
            with pytest.raises(CheckFailed, match="^product foliation failed the flatness check$"):
                product_foliation(base)
        assert svd_calls == []


class TestProjectFoliation:
    def test_ga_factor_recovers_base(self, product_spec):
        ga_fac = project_foliation(product_spec, 1)
        assert ga_fac.group == GA()
        m = product_spec.complex.covering.m
        base = ga_suspension(m, GAElement(2.0, 0.0))
        for z, b in samples(ga_fac)[:50]:
            d0 = base.developing_value((z[0],))
            assert abs(b[0] - d0[0]) < 1e-9 and abs(b[1] - d0[1]) < 1e-9
        assert ga_fac.validate_consistency() < 1e-9

    def test_abelian_factor_closed_with_log_period(self, product_spec):
        ab = project_foliation(product_spec, 2)
        assert ab.group == Rk(2)
        assert ab.cochain.shape == (len(ab.complex.edges), 2)
        assert sup(coboundary(ab.complex, ab.cochain)) < 1e-12
        # the log-scale coordinate picks up log(2)/2 around the base circle
        w = ScalarCochain1(ab.complex, ab.cochain[:, 0])
        assert abs(period(w, 0) - math.log(2) / 2) < 1e-9
        assert abs(period(w, 1)) < 1e-12

    @pytest.mark.parametrize("which", [1, 2])
    def test_lifts_outside_a_partial_window(self, product_spec, which):
        # edge lifts reach coordinate m, outside a window of the base domain
        m = product_spec.complex.covering.m
        inside = product_spec.window.max(axis=1) < m
        partial = LieFoliationSpec(
            complex=product_spec.complex,
            group=SL(2),
            holonomy=product_spec.holonomy,
            window=product_spec.window[inside],
            developing=product_spec.developing[inside],
            cochain=product_spec.cochain,
        )
        got = project_foliation(partial, which)
        ref = project_foliation(product_spec, which)
        # the projected window is the lift grid [0, m]^2, first coordinate fastest
        grid = [(x, y) for y in range(m + 1) for x in range(m + 1)]
        assert got.window.tolist() == ref.window.tolist() == [list(z) for z in grid]
        assert len(got.developing) == (m + 1) ** 2
        assert sup(got.cochain - ref.cochain) < 1e-12

    @pytest.mark.parametrize(
        "which, build",
        [(1, "product-8"), (2, "product-8"), (1, "product-16"), (2, "product-16"),
         (1, "partial"), (2, "partial"), (2, "unipotent-3"), (2, "unipotent-4")],
    )
    def test_grid_charts_equal_window_charts(self, product_spec, which, build):
        """The lift-grid projection has the bits of charting the whole
        window, the edge ends outside it and the holonomy in one stack, then
        gathering the edge ends at their window rows."""
        if build == "product-8":
            spec = product_spec
        elif build == "product-16":
            spec = product_foliation(ga_suspension(16, GAElement(1.5, 0.3)))
        elif build == "partial":
            inside = product_spec.window.max(axis=1) < product_spec.complex.covering.m
            spec = dataclasses.replace(
                product_spec,
                window=product_spec.window[inside],
                developing=product_spec.developing[inside],
            )
        else:
            spec = foliation.unipotent_torus_spec(int(build[-1]), 3, (1.0, 2.0, math.sqrt(2)))
        lifts, n = spec.complex.lifts, len(spec.developing)
        rows = spec.rows(lifts)
        outside = rows < 0
        rows[outside] = n + np.arange(outside.sum())
        extra = spec.developing_value(lifts[outside])
        _, charts = groups.iwasawa_sln_ank(
            np.concatenate([spec.developing, extra, spec.holonomy])
        )
        if which == 1:
            a = np.exp(2.0 * charts[:, 0])
            charts = np.stack([a, charts[:, 1] * a], axis=-1)
        ends, hol = charts[rows], charts[n + len(extra):]
        if which == 1:
            cochain = foliation.edge_logarithms(spec.complex, GA().matrix(ends))
        else:
            cochain, hol = ends[:, 1, -2:] - ends[:, 0, -2:], hol[:, -2:]
        got = project_foliation(spec, which)
        assert outside.any() == (build == "partial")
        assert got.cochain.tobytes() == cochain.tobytes()
        assert got.holonomy.tobytes() == hol.tobytes()

    def test_invalid_factor_index(self, product_spec):
        with pytest.raises(InputError):
            project_foliation(product_spec, 3)


class TestKernelCounts:
    def test_sl2_jobs_make_no_scipy_logm_call(self, monkeypatch, tmp_path, capsys):
        calls = []
        logm = scipy.linalg.logm

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return logm(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "logm", counted)
        spec = product_foliation(ga_suspension(8, GAElement(2.0, 0.0)))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dump_foliation_spec(spec)))
        assert main(["check-foliation", str(path)]) == 0
        assert main(["pipeline", str(path), "--epsilon", "0.01"]) == 0
        assert calls == []
        # the n >= 3 path still goes through scipy, and the counter sees it
        matrix_log(np.diag([1.1, 1.0, 1.0 / 1.1]))
        assert calls == [(3, 3)]

    def test_one_chart_per_grid_point_and_holonomy_image(self, monkeypatch, product_spec):
        calls = []
        qr_positive = groups.qr_positive

        def counted(a):
            calls.append(a)
            return qr_positive(a)

        monkeypatch.setattr(groups, "qr_positive", counted)
        project_foliation(product_spec, 2)
        assert len(product_spec.developing) == 24 * 24
        # matrices charted, over all calls: the lift grid [0, 8]^2 and 2 images
        assert sum(len(a) for a in calls) == 9 * 9 + 2 == 83

    def test_constructors_take_one_log_per_edge(self, monkeypatch):
        calls = []

        def counted(a, name=None):
            calls.append(a)
            return matrix_log(a, name)

        monkeypatch.setattr(foliation, "matrix_log", counted)
        product_foliation(ga_suspension(8, GAElement(2.0, 0.5)))
        # 8 circle edges, then 3 * 8 * 8 torus edges, each logged once
        assert sum(len(a) for a in calls) == 8 + 192

    @pytest.mark.parametrize("a, b", [(math.exp(0.2), -1.0), (math.exp(1.2), 1.0)])
    def test_sl2_edge_steps_take_no_svd(self, monkeypatch, a, b):
        # every step of an m = 8 product spec over the bench's (a, b) range
        # lies well inside the log ball, so the closed-form bound settles it
        monkeypatch.setattr(np.linalg, "norm", None)
        spec = product_foliation(ga_suspension(8, GAElement(a, b)))
        assert spec.validate_consistency() < 1e-12

    def test_abelian_flatness_takes_one_coboundary_per_cochain(self, monkeypatch):
        calls = []

        def counted(complex, values):
            calls.append(values)
            return coboundary(complex, values)

        monkeypatch.setattr(foliation, "coboundary", counted)
        spec = linear_torus_spec(8, [[1.0, math.sqrt(2)], [0.3, 1.0]])
        rep = check_mc(spec)
        assert rep.flat
        assert len(calls) == 1 and calls[0] is spec.cochain


    def test_every_expm_runs_once_inside_matrix_exp(self, monkeypatch, tmp_path, capsys):
        depth, inside, outside, wrapper_calls = [0], [], [], []
        expm, matrix_exp = scipy.linalg.expm, linalg.matrix_exp

        def counted_expm(a, *args, **kwargs):
            (inside if depth[0] else outside).append(a.shape)
            return expm(a, *args, **kwargs)

        def counted(a):
            wrapper_calls.append(a.shape)
            depth[0] += 1
            try:
                return matrix_exp(a)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(scipy.linalg, "expm", counted_expm)
        for name, module in list(sys.modules.items()):
            if name.startswith("slnfib") and getattr(module, "matrix_exp", None) is matrix_exp:
                monkeypatch.setattr(module, "matrix_exp", counted)
        spec = product_foliation(ga_suspension(8, GAElement(1.5, 0.3)))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dump_foliation_spec(spec)))
        wrapper_calls.clear()
        inside.clear()
        assert main(["check-foliation", str(path)]) == 0
        assert main(["pipeline", str(path), "--epsilon", "0.01"]) == 0
        assert outside == []
        assert inside == wrapper_calls and len(inside) == 2  # one check_mc per command


def smallest_third_ratio(spec):
    """min over vertices of sigma_3 / sigma_1 of the cochain values (as
    4-vectors) on the edges at the vertex, the edges read from complex.edges."""
    complex = spec.complex
    rows = [[] for _ in range(complex.n_vertices)]
    for i, (u, v) in enumerate(complex.edges):
        rows[u].append(i)
        rows[v].append(i)
    coords = spec.cochain.reshape(len(complex.edges), -1)
    ratios = []
    for at in rows:
        s = np.linalg.svd(coords[at], compute_uv=False)
        ratios.append(s[2] / s[0])
    return min(ratios)


def test_surjectivity_rests_on_a_term_that_decays_like_1_over_m():
    # d = 2 < dim SL(2) = 3: the third singular direction is the bracket term
    # of the discrete edge logarithm, yet the verdict still reads surjective
    ratio = {}
    for m in (8, 16):
        spec = product_foliation(ga_suspension(m, GAElement(1.5, 0.3)))
        assert check_mc(spec).surjective
        ratio[m] = smallest_third_ratio(spec)
        assert 0.16 <= m * ratio[m] <= 0.18
    assert abs(ratio[8] / ratio[16] - 2.0) <= 0.2


class TestSpecInvariants:
    @pytest.mark.parametrize("a", [0.0, -0.0, -1.5, math.nan])
    def test_ga_holonomy_needs_positive_a(self, a):
        # a spec built in Python is checked as one read from JSON is
        spec = ga_suspension(8, GAElement(1.5, 0.3))
        with pytest.raises(InputError) as e:
            dataclasses.replace(spec, holonomy=[(a, 0.3)])
        assert str(e.value) == f"holonomy image 0 has a={a:.12g}, not in GA"

    @pytest.mark.parametrize("a", [0.0, -2.0])
    def test_ga_developing_sample_needs_positive_a(self, a):
        spec = ga_suspension(8, GAElement(1.5, 0.3))
        developing = spec.developing.copy()
        developing[3, 0] = a
        with pytest.raises(InputError) as e:
            dataclasses.replace(spec, developing=developing)
        assert str(e.value) == f'developing sample "3" has a={a:.12g}, not in GA'

    def test_cochain_is_judged_on_the_spec_complex(self, rng):
        # 192 edge values fit T^2 at m = 8 and T^1 at m = 192 alike; a spec
        # holds no second complex to judge them on
        spec = linear_torus_spec(8, [[1.0, 0.0], [0.0, 1.0]])
        values = rng.normal(size=(192, 2))
        rep = check_mc(dataclasses.replace(spec, cochain=values))
        assert not rep.flat
        assert rep.max_flatness_residual == complexes.max_coboundary(spec.complex, values)
        assert rep.max_flatness_residual > 1.0

    def test_requires_exactly_one_cochain_kind(self, product_spec):
        with pytest.raises(InputError):
            LieFoliationSpec(
                complex=product_spec.complex,
                group=SL(2),
                holonomy=product_spec.holonomy,
                window=product_spec.window,
                developing=product_spec.developing,
                cochain=None,
            )
        # an R^2 cochain of the right edges on an SL(2) spec
        values = np.zeros((len(product_spec.complex.edges), 2))
        with pytest.raises(InputError, match="^SL2 spec needs a cochain of 2x2"):
            dataclasses.replace(product_spec, cochain=values)

    def test_noncommuting_holonomy_rejected(self, product_spec):
        a = GA().matrix(np.array([2.0, 0.0]))
        b = GA().matrix(np.array([1.0, 1.0]))
        with pytest.raises(InputError, match="do not commute"):
            LieFoliationSpec(
                complex=product_spec.complex,
                group=SL(2),
                holonomy=[a, b],
                window=product_spec.window,
                developing=product_spec.developing,
                cochain=product_spec.cochain,
            )

    def test_consistency_measures_cochain_drift(self, product_spec):
        w2 = bumped(product_spec.cochain, 4, [[0.0, 0.5], [0.0, 0.0]])
        spec2 = LieFoliationSpec(
            complex=product_spec.complex,
            group=SL(2),
            holonomy=product_spec.holonomy,
            window=product_spec.window,
            developing=product_spec.developing,
            cochain=w2,
        )
        assert spec2.validate_consistency() > 0.4


class TestNaNVerdicts:
    """A NaN residual fails each tolerance test instead of passing it."""

    def test_nan_commutator_distance_does_not_commute(self, monkeypatch, product_spec):
        monkeypatch.setattr(SL, "dist", lambda self, g, h: math.nan)
        with pytest.raises(InputError, match="do not commute"):
            dataclasses.replace(product_spec)

    def test_nan_coboundary_is_not_flat(self, monkeypatch):
        spec = linear_torus_spec(8, [[1.0, 0.0], [0.0, 1.0]])
        nan_at_0 = np.zeros((len(spec.complex.triangles), 2))
        nan_at_0[0, 1] = math.nan
        monkeypatch.setattr(foliation, "coboundary", lambda complex, values: nan_at_0)
        rep = check_mc(spec)
        assert not rep.flat and rep.failing_triangles == [0]
        assert math.isnan(rep.max_flatness_residual)

    def test_nan_projected_coboundary_is_not_closed(self, monkeypatch, product_spec):
        # NaN on the second of the two projected components
        nan_at_0 = np.zeros((len(product_spec.complex.triangles), 2))
        nan_at_0[0, 1] = math.nan
        monkeypatch.setattr(complexes, "coboundary", lambda complex, values: nan_at_0)
        with pytest.raises(CheckFailed, match="not closed: max coboundary nan"):
            project_foliation(product_spec, 2)
