import dataclasses
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bumped, sup, triangles_of_edge
from slnfib.algebra import AlgebraElement, OffDiag
from slnfib.complexes import (
    MAX_VERTICES,
    ScalarCochain1,
    coboundary,
    coordinate_cochain,
    holonomy_residual,
    max_coboundary,
    period,
    torus_complex,
)
from slnfib.errors import DimensionError, InputError
from slnfib.linalg import EQ_TOL


def euler_characteristic(k):
    tetrahedra = len(k.top_edges) if k.covering.d == 3 else 0
    return k.n_vertices - len(k.edges) + len(k.triangles) - tetrahedra


def axis_loop(k, axis, start=None):
    """The oriented edges (u, v) of the axis loop through the grid vertex
    start (the origin by default), in loop order."""
    d, m = k.covering.d, k.covering.m
    z = np.zeros(d, dtype=int) if start is None else np.array(start)
    step = np.eye(d, dtype=int)[axis]
    at = [int(k.covering.base_index(z + i * step)) for i in range(m + 1)]
    return list(zip(at, at[1:]))


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
        # d axis loops, each with period 1 under its own coordinate cochain
        for d in (1, 2, 3):
            k = torus_complex(d, 3)
            dx = [coordinate_cochain(k, a) for a in range(d)]
            matrix = [[period(dx[a], b) for b in range(d)] for a in range(d)]
            assert np.allclose(matrix, np.eye(d), rtol=0, atol=EQ_TOL)

    def test_manifold_like_2d(self):
        # a closed surface: every edge lies in exactly two triangles
        k = torus_complex(2, 4)
        assert all(len(triangles_of_edge(k, i)) == 2 for i in range(len(k.edges)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_incidence_rows_list_the_edges_at_each_vertex_ascending(self, d):
        for m in (3, 4, 5):
            k = torus_complex(d, m)
            rows = [[] for _ in range(k.n_vertices)]
            for i, (u, v) in enumerate(k.edges):
                rows[u].append(i)
                rows[v].append(i)
            assert k.incidence.tolist() == rows

    def test_t3_has_tetrahedra(self):
        # 6 tetrahedra per cube, each with 6 edges
        k = torus_complex(3, 3)
        assert k.top_edges.shape == (6 * 27, 6)

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
            got = [set(t2_8.edges[i]) for i in incidence]
            assert got == [{a, b}, {b, c}, {a, c}]
            assert sorted(t2_8.top_edges[t]) == sorted(incidence)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_every_triangle_edge_runs_as_its_slot(self, d):
        # the fiber census lifts slot (0, 1), (1, 2), (0, 2) of each triangle
        # from its first corner, and coboundary and holonomy_residual read
        # each slot unsigned: every slot edge must be stored as it is walked
        k = torus_complex(d, 4)
        assert k.triangle_edges.shape == (len(k.triangles), 3)
        tail, head = k.edges[k.triangle_edges].transpose(2, 0, 1)
        assert np.array_equal(tail, k.triangles[:, [0, 1, 0]])
        assert np.array_equal(head, k.triangles[:, [1, 2, 2]])

    def test_values_keyed_against_the_stored_orientation_are_negated(self, t2_8):
        u, v = t2_8.edges[7]
        base = [0.0] * len(t2_8.edges)
        w = ScalarCochain1(t2_8, t2_8.indexed([v], [u], [0.625], base))
        assert w.values[7] == -0.625
        assert (w(v, u), w(u, v)) == (0.625, -0.625)
        assert base == [0.0] * len(t2_8.edges)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.booleans(), st.floats(-4, 4)),
            min_size=3,
            max_size=40,
        ),
        st.sampled_from([2, 3]),
    )
    def test_later_key_wins_over_many_keys_on_one_edge(self, keys, d):
        # three or more keys on each of a few edges, in both orientations;
        # the oracle applies the keys in order, one at a time
        k = torus_complex(d, 3)
        keys = keys + [(keys[0][0], not keys[0][1], 0.25)] * 2
        edge = [0, 1, len(k.edges) // 2, len(k.edges) - 2, len(k.edges) - 1, 5]
        ends = [k.edges[edge[e]].tolist() for e, _, _ in keys]
        u, v = zip(*(e[::-1] if back else e for e, (_, back, _) in zip(ends, keys)))
        scalar = np.arange(len(k.edges), dtype=float)
        matrix = np.arange(4 * len(k.edges), dtype=float).reshape(-1, 2, 2)
        for base, values in [
            (scalar, [x for _, _, x in keys]),
            (matrix, [[[x, 1.0], [-x, 2.0]] for _, _, x in keys]),
        ]:
            expect = base.copy()
            for (e, back, _), value in zip(keys, values):
                expect[edge[e]] = -np.array(value) if back else value
            got = k.indexed(u, v, values, base)
            assert got.tolist() == expect.tolist()

    @pytest.mark.parametrize(
        "values, shape",
        [(0.5, "()"), (np.zeros((48, 2)), "(48, 2)"), ([Fraction(0)] * 47, "(47,)")],
        ids=["scalar", "two-columns", "short"],
    )
    def test_cochain_needs_one_value_per_edge(self, values, shape):
        # T^2 at m = 4 has 48 edges; the refusal names the shape it read
        message = f"cochain needs 48 edge values, got shape {shape}"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            ScalarCochain1(torus_complex(2, 4), values)


class TestArithmeticOrientation:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_orient_matches_the_edge_lifts(self, d, m):
        k = torus_complex(d, m)
        base = k.covering.base_index
        expect = {}
        for i, (zu, zv) in enumerate(k.lifts.tolist()):
            expect[base(zu), base(zv)] = (i, 1)
            expect[base(zv), base(zu)] = (i, -1)
        for u in range(k.n_vertices):
            for v in range(k.n_vertices):
                if (u, v) in expect:
                    assert k.orient(u, v) == expect[u, v]
                else:
                    with pytest.raises(InputError):
                        k.orient(u, v)
        for u, v in [(-1, 0), (0, k.n_vertices), (k.n_vertices, k.n_vertices + 1)]:
            with pytest.raises(InputError):
                k.orient(u, v)


    @pytest.mark.parametrize("huge", [2 ** 63, 2 ** 64 - 1, 10 ** 30])
    def test_array_orient_names_the_first_pair_that_is_no_edge(self, t2_8, huge):
        index, sign = t2_8.orient([0, 1], [1, 0])
        assert (index.tolist(), sign.tolist()) == ([1, 1], [1, -1])
        with pytest.raises(InputError, match=rf"^no edge \({huge},1\)$"):
            t2_8.orient([0, huge, 5], [1, 1, 5])


def loop_tables(d, m):
    """The torus tables by a plain loop over the grid cells and monotone
    chains, as the SimplicialComplex docstring states the construction:
    vertex v = sum c_k m^k, edge u * (2^d - 1) + j = (u, u + e_j) for the
    j-th nonzero e_j of {0,1}^d in product order, one row per cell z and
    chain 0 < a < b (< c), chains in the order of their vectors."""
    vecs = [e for e in itertools.product((0, 1), repeat=d) if any(e)]

    def vertex(c):
        return sum((x % m) * m ** k for k, x in enumerate(c))

    def shift(c, a):
        return [x + y for x, y in zip(c, a)]

    def edge(c, a, b):  # the edge (c + a, c + b), stored as it runs
        step = tuple(y - x for x, y in zip(a, b))
        return vertex(shift(c, a)) * len(vecs) + vecs.index(step)

    def below(a, b):
        return a != b and all(x <= y for x, y in zip(a, b))

    zero = (0,) * d
    tri = [(zero, a, b) for a in vecs for b in vecs if below(a, b)]
    tet = [ch + (c,) for ch in tri for c in vecs if below(ch[2], c)]
    top = (None, [(zero, e) for e in vecs], tri, tet)[d]
    pairs = list(itertools.combinations(range(d + 1), 2))
    shapes = {
        "vertex_coords": (d,),
        "lifts": (2, d),
        "edges": (2,),
        "triangles": (3,),
        "triangle_edges": (3,),
        "top_edges": (len(pairs),),
        "incidence": (2 * len(vecs),),
    }
    out = {name: [] for name in shapes}
    for z in range(m ** d):
        c = [z // m ** k % m for k in range(d)]
        out["vertex_coords"].append(c)
        for e in vecs:
            out["lifts"].append([c, shift(c, e)])
            out["edges"].append([z, vertex(shift(c, e))])
        for ch in tri:
            out["triangles"].append([vertex(shift(c, a)) for a in ch])
            slots = ((0, 1), (1, 2), (0, 2))
            out["triangle_edges"].append([edge(c, ch[s], ch[t]) for s, t in slots])
        for ch in top:
            out["top_edges"].append([edge(c, ch[s], ch[t]) for s, t in pairs])
    out["incidence"] = [[] for _ in range(m ** d)]
    for i, (u, v) in enumerate(out["edges"]):
        out["incidence"][u].append(i)
        out["incidence"][v].append(i)
    return {
        k: np.array(v, dtype=np.int64).reshape((-1,) + shapes[k]) for k, v in out.items()
    }


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_torus_tables_in_the_order_of_the_cell_loop(d, m):
    # the row order matters: triangle order sets the census slot order and
    # the triangle that a refusal names
    k = torus_complex(d, m)
    for name, expect in loop_tables(d, m).items():
        got = getattr(k, name)
        assert got.dtype == np.int64, name
        assert got.shape == expect.shape, name
        assert np.array_equal(got, expect), name


class TestEdgeLifts:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_each_edge_lifts_by_a_unit_step(self, d):
        for m in (3, 4, 5):
            k = torus_complex(d, m)
            assert len(k.lifts) == len(k.edges)
            steps = []
            for (u, v), lift in zip(k.edges.tolist(), k.lifts.tolist()):
                zu, zv = k.vertex_coords[u].tolist(), k.vertex_coords[v].tolist()
                e = tuple((b - a) % m for a, b in zip(zu, zv))
                assert set(e) <= {0, 1} and any(e)
                assert lift == [zu, [a + x for a, x in zip(zu, e)]]
                steps.append(e)
            for ax in range(d):
                assert coordinate_cochain(k, ax).values.tolist() == [
                    e[ax] / m for e in steps
                ]

    @pytest.mark.parametrize(
        "d, m", [(d, m) for d in (1, 2, 3) for m in (3, 4, 8)] + [(3, 40)]
    )
    def test_coordinate_cochain_bits_equal_the_lift_steps(self, d, m):
        # dx_axis is read off the edge index; its bits are those of the
        # axis step of each edge lift over m
        k = torus_complex(d, m)
        for ax in range(d):
            steps = k.lifts[:, 1, ax] - k.lifts[:, 0, ax]
            got = coordinate_cochain(k, ax).values
            assert got.dtype == np.float64
            assert got.tobytes() == (steps / m).tobytes()


class TestCoboundary:
    def test_gradient_is_closed(self, rng):
        k = torus_complex(2, 5)
        f = {v: rng.normal() for v in range(k.n_vertices)}
        w = ScalarCochain1(k, [f[v] - f[u] for u, v in k.edges])
        assert max(abs(x) for x in coboundary(k, w.values)) < 1e-12

    def test_coordinate_cochain_closed(self, t2_8):
        assert max_coboundary(t2_8, coordinate_cochain(t2_8, 0).values) == 0
        assert max_coboundary(t2_8, coordinate_cochain(t2_8, 1).values) == 0

    def test_perturbation_localized(self, t2_8):
        w = coordinate_cochain(t2_8, 0)
        values = [w(u, v) for u, v in t2_8.edges]
        values[5] = values[5] + Fraction(1, 3)
        w2 = ScalarCochain1(t2_8, values)
        bad = [t for t, x in enumerate(coboundary(t2_8, w2.values)) if x != 0]
        assert sorted(bad) == sorted(triangles_of_edge(t2_8, 5))


class TestPeriod:
    def test_dx_periods(self, t2_8):
        dx = coordinate_cochain(t2_8, 0)
        assert period(dx, 0) == 1
        assert period(dx, 1) == 0

    def test_mixed_cochain_period(self, t2_8):
        w = coordinate_cochain(t2_8, 0).scale(1.0) + coordinate_cochain(
            t2_8, 1
        ).scale(math.sqrt(2))
        assert abs(period(w, 1) - math.sqrt(2)) < 1e-12

    def test_homologous_cycles_agree(self, t2_8):
        # x-loop at row 0 and x-loop at row 3 are homologous; on T^2 the
        # edge (u, u + e_0) is u * 3 + 1
        dx = coordinate_cochain(t2_8, 0)
        loop = axis_loop(t2_8, 0, (0, 3))
        index = [u * 3 + 1 for u, _ in loop]
        assert t2_8.edges[index].tolist() == [list(e) for e in loop]
        total = 0.0
        for x in dx.values[index].tolist():
            total += x
        assert period(dx, 0) == total

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_period_matches_the_sum_over_oriented_edges(self, d):
        # the loop's edges resolved by orient and summed with their signs,
        # in loop order: the sum over a general cycle of oriented edges
        rng = np.random.default_rng(d)
        for m in (3, 4, 5, 8, 13):
            k = torus_complex(d, m)
            for _ in range(5):
                scale = 10.0 ** rng.uniform(-3, 3, len(k.edges))
                w = ScalarCochain1(k, rng.standard_normal(len(k.edges)) * scale)
                for axis in range(d):
                    index, sign = k.orient(*zip(*axis_loop(k, axis)))
                    total = 0.0
                    for x in (w.values[index] * sign).tolist():
                        total += x
                    assert period(w, axis).hex() == total.hex()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_coordinate_cochains_are_dual_to_the_axis_loops(self, d):
        # the invariant that lets rationalize correct period k by dx_k alone;
        # m = 65356 has the largest float error of 1/m summed m times on T^1
        cap = int(MAX_VERTICES ** (1 / d) + 1e-9)  # the largest m under the cap
        sizes = {3, 4, 5, 6, 7, 10, 16, 37, cap} | ({65356} if d == 1 else set())
        for m in sorted(sizes):
            k = torus_complex(d, m)
            for a in range(d):
                dx = coordinate_cochain(k, a)
                for b in range(d):
                    assert abs(period(dx, b) - (a == b)) <= EQ_TOL


def ga_like(t, s):
    return np.array([[t, s], [0.0, -t]])


class TestFlatness:
    def test_abelian_closed_cochain_flat(self, t2_8):
        # values in a fixed abelian line of sl(2): brackets vanish, dw = 0
        dx = coordinate_cochain(t2_8, 0)
        w = np.array([ga_like(float(dx(u, v)), 0.0) for u, v in t2_8.edges])
        assert max(np.abs(r).max() for r in holonomy_residual(t2_8, w)) < 1e-12

    def test_log_derived_cochain_flat(self, product_spec):
        res = holonomy_residual(product_spec.complex, product_spec.cochain)
        assert max(np.abs(r).max() for r in res) < 1e-8

    def test_perturbed_edge_flagged(self, product_spec):
        eps = 0.01
        k = product_spec.complex
        w2 = bumped(product_spec.cochain, 17, [[0.0, eps], [0.0, 0.0]])
        affected = triangles_of_edge(k, 17)
        hol = holonomy_residual(k, w2)
        for t in affected:
            assert np.abs(hol[t]).max() > 1e-8

    def test_residual_zero_elsewhere(self, product_spec):
        eps = 0.01
        k = product_spec.complex
        w2 = bumped(product_spec.cochain, 17, [[0.0, eps], [0.0, 0.0]])
        affected = set(triangles_of_edge(k, 17))
        hol = holonomy_residual(k, w2)
        for t in range(len(k.triangles)):
            if t not in affected:
                assert np.abs(hol[t]).max() < 1e-8


class TestLieCochain:
    """A Lie cochain is a plain edge array that a spec checks against its
    own complex."""

    def test_orientation_antisymmetry(self, product_spec):
        # the value of w on (u, v) and on (v, u), each read through orient
        u, v = product_spec.complex.edges[3]
        index, sign = product_spec.complex.orient([u, v], [v, u])
        values = product_spec.cochain[index] * sign[:, None, None]
        assert sup(values[0] + values[1]) < 1e-15

    def test_mixed_dimensions_rejected(self, product_spec):
        vals = [np.zeros((2, 2)) for _ in product_spec.complex.edges]
        vals[0] = np.zeros((3, 3))
        want = "^SL2 spec needs a cochain of 2x2 matrices and no other cochain$"
        with pytest.raises(InputError, match=want):
            dataclasses.replace(product_spec, cochain=vals)

    def test_non_finite_value_names_its_edge(self, product_spec):
        edges = product_spec.complex.edges
        vals = np.zeros((len(edges), 2, 2))
        vals[5, 0, 1] = np.nan
        u, v = edges[5]
        with pytest.raises(InputError, match=f"^Lie cochain value on edge {u}-{v} is not finite$"):
            dataclasses.replace(product_spec, cochain=vals)


def small_fractions():
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def exact_closed_forms(draw):
    """(d, m, c, f) for the closed form sum_i c_i dx_i + df on T^d, m
    subdivisions: rational coefficients c and a rational vertex function f."""
    d = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(3, 6 if d == 2 else 4))
    coeffs = draw(st.tuples(*[small_fractions()] * d))
    f = draw(st.lists(small_fractions(), min_size=m ** d, max_size=m ** d))
    return d, m, coeffs, f


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(exact_closed_forms())
def test_float_periods_match_exact_sums(form):
    d, m, coeffs, f = form

    def exact(u, v):
        # the grid step from u to v, each coordinate in {-1, 0, 1} (m >= 3)
        step = [((v // m ** i - u // m ** i) % m + 1) % m - 1 for i in range(d)]
        return sum(c * s for c, s in zip(coeffs, step)) / m + f[v] - f[u]

    k = torus_complex(d, m)
    w = ScalarCochain1(k, [float(exact(u, v)) for u, v in k.edges])
    assert max_coboundary(k, w.values) <= 1e-12
    for axis in range(d):
        walked = [exact(u, v) for u, v in axis_loop(k, axis)]
        assert sum(walked) == coeffs[axis]
        error = abs(Fraction(period(w, axis)) - coeffs[axis])
        assert error <= m * Fraction(1, 2 ** 52) * sum(map(abs, walked))
