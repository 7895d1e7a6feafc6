"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Each test exercises a user-visible guarantee at its stated tolerance and
prints a single summary line; run with -s to see all lines.
"""
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

from conftest import (
    bumped,
    ga_and_angle,
    r_from_chart,
    random_sl,
    rotation,
    sup,
    triangles_of_edge,
)
from slnfib.algebra import (
    AlgebraElement,
    Diag,
    OffDiag,
    basis_indices,
    bracket,
    build_structure_table,
    dims,
)
from slnfib.complexes import (
    coordinate_cochain,
    holonomy_residual,
    torus_complex,
)
from slnfib.errors import InputError, SingularInput
from slnfib.foliation import (
    check_equivariance,
    check_mc,
    ga_suspension,
    linear_torus_spec,
    product_foliation,
)
from slnfib.groups import GA, GAElement, chart_length, iwasawa_sln
from slnfib.tischler import (
    RationalizeConfig,
    pipeline_sln,
    rationalize,
    tischler_fibration,
)


def report(num, desc, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_bracket_identities():
    start = time.perf_counter()
    ok = True
    for n in range(2, 7):
        offs = [i for i in basis_indices(n) if isinstance(i, OffDiag)]
        for a, b in itertools.product(offs, offs):
            got = bracket(AlgebraElement.basis(a, n), AlgebraElement.basis(b, n))
            i, j = a.i, a.j
            k, l = b.i, b.j
            if len({i, j, k, l}) == 4:
                expect = AlgebraElement.zero(n)
            elif j == k and i != l:
                expect = AlgebraElement.basis(OffDiag(i, l), n)
            elif i == l and j != k:
                expect = -AlgebraElement.basis(OffDiag(k, j), n)
            elif i == l and j == k:
                m = AlgebraElement.basis(OffDiag(i, j), n).to_matrix()
                # E_ii - E_jj realized through the matrix commutator directly
                other = AlgebraElement.basis(OffDiag(j, i), n).to_matrix()
                expect = AlgebraElement.from_matrix(m @ other - other @ m)
            else:
                # shared first or second index only: commutator of disjoint
                # row/column supports vanishes
                expect = AlgebraElement.zero(n)
            ok = ok and got == expect
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(1, f"bracket identities exact, n=2..6 ({elapsed:.2f}s)", ok)


def test_criterion_02_dimension_audit():
    ok = True
    for n in range(2, 7):
        ok = ok and dims(n) == (n - 1, n * n - n, n * n - 1)
        ok = ok and chart_length(n) == n * (n + 1) // 2 - 1
    report(2, "dims(n) and chart length formulas, n=2..6", ok)


def test_criterion_03_jacobi_antisymmetry():
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        t = build_structure_table(n)
        idx = basis_indices(n)
        elems = {i: AlgebraElement.basis(i, n) for i in idx}
        for a in idx:
            for b in idx:
                ok = ok and t.get(a, b) == -t.get(b, a)
        for x, y, z in itertools.product(idx, repeat=3):
            total = (
                bracket(elems[x], t.get(y, z))
                + bracket(elems[y], t.get(z, x))
                + bracket(elems[z], t.get(x, y))
            )
            ok = ok and total.is_zero()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(3, f"Jacobi + antisymmetry exact, n<=4 ({elapsed:.2f}s)", ok)


def test_criterion_04_iwasawa_roundtrips(rng):
    ok = True
    for n in (2, 3, 4):
        for _ in range(1000):
            g = random_sl(n, rng)
            k, chart = iwasawa_sln(g)
            ok = ok and sup(k @ r_from_chart(n, chart) - g) < 1e-9
    # SL(2) factor uniqueness and section identity
    for _ in range(100):
        g = random_sl(2, rng)
        a, b, theta = ga_and_angle(g)
        a2, b2, theta2 = ga_and_angle(GA().matrix(np.array([a, b])) @ rotation(theta))
        ok = ok and abs(a2 - a) < 1e-9 and abs(b2 - b) < 1e-9
        ok = ok and abs(theta2 - theta) < 1e-9
    for k in range(360):
        th = 2 * math.pi * k / 360
        ok = ok and abs(ga_and_angle(rotation(th))[2] - th) < 1e-12
    report(4, "Iwasawa roundtrips 1000x{2,3,4} < 1e-9, SL(2) factors unique", ok)


def test_criterion_05_ga_homomorphism(rng):
    ok = True
    for _ in range(500):
        g = np.array([math.exp(rng.normal()), rng.normal()])
        h = np.array([math.exp(rng.normal()), rng.normal()])
        dev = sup(GA().matrix(GA().mul(g, h)) - GA().matrix(g) @ GA().matrix(h))
        ok = ok and dev < 1e-10
    report(5, "GA embedding homomorphism, 500 pairs < 1e-10", ok)


def test_criterion_06_maurer_cartan(product_spec):
    res = holonomy_residual(product_spec.complex, product_spec.cochain)
    ok = all(np.abs(r).max() < 1e-8 for r in res)
    w2 = bumped(product_spec.cochain, 11, [[0.0, 0.01], [0.0, 0.0]])
    res2 = holonomy_residual(product_spec.complex, w2)
    for t in triangles_of_edge(product_spec.complex, 11):
        ok = ok and np.abs(res2[t]).max() > 1e-8
    report(6, "MC holonomy residual < 1e-8 on T^2 m=8, 0.01 bump flagged", ok)


def test_criterion_07_equivariance(product_spec):
    linear = linear_torus_spec(8, [[1.0, math.sqrt(2)]])
    ok = check_equivariance(linear).max_deviation < 1e-12
    ok = ok and check_equivariance(product_spec).max_deviation < 1e-9
    report(7, "equivariance: linear sqrt(2) < 1e-12, SL(2) product < 1e-9", ok)


def test_criterion_08_tischler_t2():
    start = time.perf_counter()
    k = torus_complex(2, 16)
    w = coordinate_cochain(k, 0).scale(1.0) + coordinate_cochain(k, 1).scale(
        math.sqrt(2)
    )
    cm, rz, sub, censuses = tischler_fibration(w, RationalizeConfig(0.01))
    elapsed = time.perf_counter() - start
    ok = rz.periods == [Fraction(1), Fraction(17, 12)]
    ok = ok and rz.q == 12
    ok = ok and cm.periods == [12, 17]
    ok = ok and rz.sup_change <= 0.01
    ok = ok and sub.passed()
    ok = ok and len({c.component_count for c in censuses}) == 1
    ok = ok and len(censuses) == 10
    ok = ok and elapsed < 5.0
    report(8, f"Tischler dx + sqrt(2) dy: (1, 17/12), q=12 ({elapsed:.2f}s)", ok)


def test_criterion_09_pipeline_witness(product_spec):
    cfg = RationalizeConfig(0.01)
    abelian = linear_torus_spec(8, [[1.0, 0.0], [0.0, 1.0]])
    ok = True
    for spec, rebuild in (
        (abelian, lambda: linear_torus_spec(8, [[1.0, 0.0], [0.0, 1.0]])),
        (product_spec, lambda: product_foliation(ga_suspension(8, GAElement(2.0, 0.0)))),
    ):
        rep1 = pipeline_sln(spec, cfg)
        rep2 = pipeline_sln(rebuild(), cfg)
        ok = ok and rep1.ok
        ok = ok and any(
            s["stage"] == "submersion" and s["pass"] for s in rep1.stages
        )
        a = json.dumps(rep1.to_dict(), sort_keys=True)
        b = json.dumps(rep2.to_dict(), sort_keys=True)
        ok = ok and a == b
    report(9, "pipeline on R^2 and SL(2) product specs, byte-identical", ok)


def test_criterion_10_negative_controls(t2_8):
    ok = True
    # non-closed rationalize input
    w = coordinate_cochain(t2_8, 0)
    values = [w(u, v) for u, v in t2_8.edges]
    values[2] = values[2] + Fraction(1, 5)
    from slnfib.complexes import ScalarCochain1

    try:
        rationalize(ScalarCochain1(t2_8, values), RationalizeConfig(0.01))
        ok = False
    except InputError:
        pass
    # non-unimodular decomposition input
    try:
        iwasawa_sln(np.diag([2.0, 1.0]))
        ok = False
    except SingularInput:
        pass
    # zero-cochain pipeline input: reported failure, no exception
    rep = pipeline_sln(
        linear_torus_spec(8, [[0.0, 0.0], [0.0, 0.0]]), RationalizeConfig(0.01)
    )
    ok = ok and not rep.ok
    ok = ok and "no submersive" in rep.stages[-1]["reason"]
    report(10, "negative controls raise designated errors, never crash", ok)
