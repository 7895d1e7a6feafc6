import json
import math

import numpy as np
import pytest
import scipy.linalg

from slnfib import foliation, groups
from slnfib.cli import main
from slnfib.complexes import coboundary, period, homology_generators
from slnfib.errors import InputError
from slnfib.foliation import (
    FoliatedCocycle,
    LieFoliationSpec,
    check_cocycle,
    check_equivariance,
    check_mc,
    ga_suspension,
    linear_torus_spec,
    product_foliation,
    project_foliation,
)
from slnfib.groups import GA, SL, GAElement, Rk, ga_embed, iwasawa_sl2
from slnfib.linalg import FMatrix, matrix_log
from slnfib.serialize import dump_foliation_spec


class TestCocycle:
    def test_single_chart_passes(self):
        c = FoliatedCocycle(
            group=Rk(1),
            charts=[frozenset(range(5))],
            submersions=[{v: (0.1 * v,) for v in range(5)}],
            transitions={},
        )
        rep = check_cocycle(c)
        assert rep.passed(1e-12)

    def two_chart_circle(self, perturb=0.0):
        # two arcs covering a circle; on the second overlap the charts differ
        # by translation by 1 (the suspension cocycle)
        f1 = {v: (v / 4,) for v in (0, 1, 2, 3, 4)}
        f2 = {v: (v / 4 - 1.0 + (perturb if v in (4, 0) else 0),) for v in (3, 4, 0, 1)}
        # overlap {3, 4}: f2 = f1 - 1; overlap handled with one transition
        return FoliatedCocycle(
            group=Rk(1),
            charts=[frozenset((0, 1, 2, 3, 4)), frozenset((3, 4))],
            submersions=[f1, {3: f2[3], 4: f2[4]}],
            transitions={(0, 1): (-1.0,)},
        )

    def test_suspension_cocycle_passes(self):
        assert check_cocycle(self.two_chart_circle()).passed(1e-12)

    def test_perturbed_transition_measured(self):
        rep = check_cocycle(self.two_chart_circle(perturb=0.25))
        assert abs(rep.max_transition_violation - 0.25) < 1e-12

    def test_sl3_self_transition_against_identity(self):
        g = FMatrix([[2.0, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
        c = FoliatedCocycle(
            group=SL(3),
            charts=[frozenset((0, 1))],
            submersions=[{0: g, 1: g}],
            transitions={(0, 0): FMatrix.identity(3)},
        )
        rep = check_cocycle(c)
        assert rep.max_cocycle_violation == 0.0
        assert rep.passed(0.0)


class TestLinearSpec:
    def test_mc_passes(self):
        spec = linear_torus_spec(8, [[1.0, 0.0], [0.0, 1.0]])
        rep = check_mc(spec)
        assert rep.flat and rep.surjective

    def test_projection_to_first_component(self):
        spec = linear_torus_spec(8, [[1.0, 0.0], [0.0, 1.0]])
        sub = project_foliation(spec, 1)
        assert sub.group == Rk(1)
        rep = check_mc(sub)
        assert rep.flat and rep.surjective

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
            developing=spec.developing,
            scalar_cochains=spec.scalar_cochains,
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


class TestProductFoliation:
    def test_equivariance(self, product_spec):
        rep = check_equivariance(product_spec)
        assert rep.max_deviation < 1e-9

    def test_mc(self, product_spec):
        rep = check_mc(product_spec)
        assert rep.flat and rep.surjective

    def test_fibers_split_into_base_and_angle(self, product_spec):
        # iwasawa_sl2 of D(x, y) recovers (base developing, circle position)
        m = product_spec.complex.covering.m
        base = ga_suspension(m, GAElement(2.0, 0.0))
        for z, g in list(product_spec.developing.items())[:50]:
            b, ang = iwasawa_sl2(g)
            d0 = base.developing_value((z[0],))
            assert abs(b.a - d0.a) < 1e-9 and abs(b.b - d0.b) < 1e-9
            expect = (2 * math.pi * z[1] / m) % (2 * math.pi)
            diff = abs(ang.theta - expect)
            assert min(diff, 2 * math.pi - diff) < 1e-9

    def test_degenerate_base_gives_rotation_family(self):
        base = ga_suspension(8, GAElement(1.0, 0.0))
        prod = product_foliation(base)
        for z, g in list(prod.developing.items())[:20]:
            b, _ = iwasawa_sl2(g)
            assert abs(b.a - 1.0) < 1e-9 and abs(b.b) < 1e-9

    def test_rejects_non_ga_base(self):
        spec = linear_torus_spec(8, [[1.0, 0.0]])
        with pytest.raises(InputError):
            product_foliation(spec)


class TestProjectFoliation:
    def test_ga_factor_recovers_base(self, product_spec):
        ga_fac = project_foliation(product_spec, 1)
        assert ga_fac.group == GA()
        m = product_spec.complex.covering.m
        base = ga_suspension(m, GAElement(2.0, 0.0))
        for z, b in list(ga_fac.developing.items())[:50]:
            d0 = base.developing_value((z[0],))
            assert abs(b.a - d0.a) < 1e-9 and abs(b.b - d0.b) < 1e-9
        assert ga_fac.validate_consistency() < 1e-9

    def test_abelian_factor_closed_with_log_period(self, product_spec):
        ab = project_foliation(product_spec, 2)
        assert ab.group == Rk(2)
        for w in ab.scalar_cochains:
            assert max(abs(float(x)) for x in coboundary(w)) < 1e-12
        gens = homology_generators(ab.complex)
        # the log-scale coordinate picks up log(2)/2 around the base circle
        assert abs(period(ab.scalar_cochains[0], gens[0]) - math.log(2) / 2) < 1e-9
        assert abs(period(ab.scalar_cochains[0], gens[1])) < 1e-12

    def test_projection_commutes_with_flatness(self):
        spec = linear_torus_spec(8, [[1.0, 0.5], [0.25, 1.0]])
        for which in (1, 2):
            sub = project_foliation(spec, which)
            assert check_mc(sub).flat

    @pytest.mark.parametrize("which", [1, 2])
    def test_lifts_outside_a_partial_window(self, product_spec, which):
        # edge lifts reach coordinate m, outside a window of the base domain
        m = product_spec.complex.covering.m
        partial = LieFoliationSpec(
            complex=product_spec.complex,
            group=SL(2),
            holonomy=product_spec.holonomy,
            developing={
                z: g for z, g in product_spec.developing.items() if max(z) < m
            },
            cochain=product_spec.cochain,
        )
        got = project_foliation(partial, which)
        ref = project_foliation(product_spec, which)
        assert len(got.developing) == m * m
        for u, v in product_spec.complex.edges:
            if which == 1:
                assert got.cochain(u, v).dist(ref.cochain(u, v)) < 1e-12
            else:
                for w, w_ref in zip(got.scalar_cochains, ref.scalar_cochains):
                    assert abs(w(u, v) - w_ref(u, v)) < 1e-12

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
        matrix_log(FMatrix(np.diag([1.1, 1.0, 1.0 / 1.1])))
        assert calls == [(3, 3)]

    def test_one_chart_per_sample_and_holonomy_image(self, monkeypatch, product_spec):
        calls = []
        qr_positive = groups.qr_positive

        def counted(a):
            calls.append(a)
            return qr_positive(a)

        monkeypatch.setattr(groups, "qr_positive", counted)
        project_foliation(product_spec, 2)
        assert len(product_spec.developing) == 24 * 24
        assert len(calls) == 24 * 24 + len(product_spec.holonomy)

    def test_constructors_take_one_log_per_edge(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a)
            return matrix_log(a)

        monkeypatch.setattr(foliation, "matrix_log", counted)
        product_foliation(ga_suspension(8, GAElement(2.0, 0.5)))
        # 8 circle edges, then 3 * 8 * 8 torus edges
        assert len(calls) == 8 + 192

    def test_abelian_flatness_takes_one_coboundary_per_cochain(self, monkeypatch):
        calls = []

        def counted(w):
            calls.append(w)
            return coboundary(w)

        monkeypatch.setattr(foliation, "coboundary", counted)
        spec = linear_torus_spec(8, [[1.0, math.sqrt(2)], [0.3, 1.0]])
        rep = check_mc(spec)
        assert rep.flat
        assert calls == spec.scalar_cochains


class TestSpecInvariants:
    def test_requires_exactly_one_cochain_kind(self, product_spec):
        with pytest.raises(InputError):
            LieFoliationSpec(
                complex=product_spec.complex,
                group=SL(2),
                holonomy=product_spec.holonomy,
                developing=product_spec.developing,
            )

    def test_noncommuting_holonomy_rejected(self, product_spec):
        a = ga_embed(GAElement(2.0, 0.0))
        b = ga_embed(GAElement(1.0, 1.0))
        with pytest.raises(InputError, match="do not commute"):
            LieFoliationSpec(
                complex=product_spec.complex,
                group=SL(2),
                holonomy=[a, b],
                developing=product_spec.developing,
                cochain=product_spec.cochain,
            )

    def test_consistency_measures_cochain_drift(self, product_spec):
        bump = FMatrix([[0.0, 0.5], [0.0, 0.0]])
        e = product_spec.complex.edges[4]
        w2 = product_spec.cochain.with_edge(*e, product_spec.cochain(*e) + bump)
        spec2 = LieFoliationSpec(
            complex=product_spec.complex,
            group=SL(2),
            holonomy=product_spec.holonomy,
            developing=product_spec.developing,
            cochain=w2,
        )
        assert spec2.validate_consistency() > 0.4
