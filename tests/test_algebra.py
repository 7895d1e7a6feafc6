import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from slnfib import algebra
from slnfib.algebra import (
    AlgebraElement,
    Diag,
    OffDiag,
    basis_indices,
    bracket,
    build_structure_table,
    dims,
    expected_offdiag_bracket,
    expected_offdiag_table,
    structure_table_json,
)
from slnfib.errors import DimensionError
from slnfib.linalg import RMatrix


class TestBasisMatrix:
    def test_offdiag_n2(self):
        expect = RMatrix([[0, 1], [0, 0]])
        assert AlgebraElement.basis(OffDiag(1, 2), 2).to_matrix() == expect

    def test_diag_n2(self):
        assert AlgebraElement.basis(Diag(2), 2).to_matrix() == RMatrix([[-1, 0], [0, 1]])

    def test_diag_n3(self):
        expect = RMatrix([[-1, 0, 0], [0, 0, 0], [0, 0, 1]])
        assert AlgebraElement.basis(Diag(3), 3).to_matrix() == expect

    def test_all_traceless(self):
        for n in (2, 3, 4, 5):
            for idx in basis_indices(n):
                assert AlgebraElement.basis(idx, n).to_matrix().trace() == 0

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            AlgebraElement.basis(OffDiag(1, 4), 3).to_matrix()
        with pytest.raises(DimensionError):
            AlgebraElement.basis(Diag(1), 3).to_matrix()


class TestDims:
    @pytest.mark.parametrize(
        "n,expect", [(2, (1, 2, 3)), (3, (2, 6, 8)), (5, (4, 20, 24))]
    )
    def test_formulas(self, n, expect):
        assert dims(n) == expect

    def test_counts_match_index_lists(self):
        for n in (2, 3, 4, 6):
            dim_h, dim_off, dim_total = dims(n)
            idx = basis_indices(n)
            assert sum(isinstance(i, Diag) for i in idx) == dim_h
            assert sum(isinstance(i, OffDiag) for i in idx) == dim_off
            assert len(idx) == dim_total


class TestBracket:
    def test_disjoint_indices_commute(self):
        x = AlgebraElement.basis(OffDiag(1, 2), 4)
        y = AlgebraElement.basis(OffDiag(3, 4), 4)
        assert bracket(x, y).is_zero()

    def test_chain_identity(self):
        x = AlgebraElement.basis(OffDiag(1, 2), 3)
        y = AlgebraElement.basis(OffDiag(2, 3), 3)
        assert bracket(x, y) == AlgebraElement.basis(OffDiag(1, 3), 3)

    def test_reversed_chain_identity(self):
        x = AlgebraElement.basis(OffDiag(1, 2), 3)
        y = AlgebraElement.basis(OffDiag(3, 1), 3)
        assert bracket(x, y) == -AlgebraElement.basis(OffDiag(3, 2), 3)

    def test_transpose_pair_gives_diagonal(self):
        x = AlgebraElement.basis(OffDiag(1, 2), 2)
        y = AlgebraElement.basis(OffDiag(2, 1), 2)
        # [E12, E21] = E11 - E22 = -Y2
        assert bracket(x, y) == -AlgebraElement.basis(Diag(2), 2)

    def test_alternating(self):
        x = AlgebraElement.from_coeffs(
            3, {OffDiag(1, 3): Fraction(2), Diag(2): Fraction(-1, 3)}
        )
        assert bracket(x, x).is_zero()

    def test_all_offdiag_pairs_match_classical_identities(self):
        # the four closed-form identities as an independent oracle
        for n in (2, 3, 4):
            offs = [i for i in basis_indices(n) if isinstance(i, OffDiag)]
            for a, b in itertools.product(offs, offs):
                got = bracket(AlgebraElement.basis(a, n), AlgebraElement.basis(b, n))
                assert got == expected_offdiag_bracket(a, b, n), (a, b)


class TestStructureTable:
    def test_n2_contents(self):
        t = build_structure_table(2)
        assert t.coeffs.shape == (3, 3, 3) and len(list(t.items())) == 9
        y2 = AlgebraElement.basis(Diag(2), 2)
        e12 = AlgebraElement.basis(OffDiag(1, 2), 2)
        assert t.get(OffDiag(1, 2), OffDiag(2, 1)) == -y2
        assert t.get(Diag(2), OffDiag(1, 2)) == e12.scale(-2)

    def test_antisymmetry_n3(self):
        t = build_structure_table(3)
        for a in basis_indices(3):
            for b in basis_indices(3):
                assert t.get(a, b) == -t.get(b, a)

    @pytest.mark.parametrize("n", [2, 3])
    def test_jacobi_all_triples(self, n):
        t = build_structure_table(n)
        idx = basis_indices(n)
        elems = {i: AlgebraElement.basis(i, n) for i in idx}
        for x, y, z in itertools.product(idx, repeat=3):
            total = (
                bracket(elems[x], t.get(y, z))
                + bracket(elems[y], t.get(z, x))
                + bracket(elems[z], t.get(x, y))
            )
            assert total.is_zero(), (x, y, z)


def numpy_basis(n):
    """The (n^2 - 1, n, n) int64 basis matrices, written from their definition."""
    mats = []
    for i in range(n):
        for j in range(n):
            if i != j:
                mats.append(np.zeros((n, n), np.int64))
                mats[-1][i, j] = 1
    for i in range(1, n):
        mats.append(np.zeros((n, n), np.int64))
        mats[-1][i, i], mats[-1][0, 0] = 1, -1
    return np.array(mats)


def coefficient_vector(x, n):
    """The coefficients of an AlgebraElement as a list over the ordered basis."""
    coeffs = dict(x.coeffs)
    return [coeffs.get(idx, 0) for idx in basis_indices(n)]


class TestStructureArray:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_rows_are_the_commutators_of_the_basis(self, n):
        # sum_c C[p, q, c] B_c == B_p B_q - B_q B_p, checked pair by pair
        basis = numpy_basis(n)
        t = build_structure_table(n)
        assert t.coeffs.dtype == np.int64 and not t.coeffs.flags.writeable
        got = np.einsum("pqc,cij->pqij", t.coeffs, basis)
        for p, a in enumerate(basis):
            for q, b in enumerate(basis):
                assert np.array_equal(got[p, q], a @ b - b @ a), (n, p, q)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_closed_form_array_matches_the_identities(self, n):
        offs = [i for i in basis_indices(n) if isinstance(i, OffDiag)]
        expect = [
            [coefficient_vector(expected_offdiag_bracket(a, b, n), n) for b in offs]
            for a in offs
        ]
        assert expected_offdiag_table(n).tolist() == expect

    @pytest.mark.parametrize("n", range(2, 6))
    def test_get_matches_the_fraction_bracket(self, n):
        t = build_structure_table(n)
        for a, b in itertools.product(basis_indices(n), repeat=2):
            x, y = AlgebraElement.basis(a, n), AlgebraElement.basis(b, n)
            assert t.get(a, b) == bracket(x, y), (a, b)


class TestAlgebraElement:
    def test_matrix_roundtrip(self):
        x = AlgebraElement.from_coeffs(
            3,
            {
                OffDiag(1, 2): Fraction(3, 7),
                OffDiag(3, 1): Fraction(-2),
                Diag(2): Fraction(1, 2),
                Diag(3): Fraction(-5),
            },
        )
        assert AlgebraElement.from_matrix(x.to_matrix()) == x

    def test_realization_traceless(self):
        x = AlgebraElement.from_coeffs(
            4, {Diag(2): Fraction(1), Diag(4): Fraction(7, 3), OffDiag(2, 4): Fraction(1)}
        )
        assert x.to_matrix().trace() == 0

    def test_rejects_nonzero_trace(self):
        with pytest.raises(ValueError):
            AlgebraElement.from_matrix(RMatrix.identity(2))


def test_basis_linear_independence():
    # the flattened basis matrices have full rank n^2 - 1, by sympy's exact rank
    for n in (2, 3, 4, 5):
        basis = [AlgebraElement.basis(idx, n).to_matrix() for idx in basis_indices(n)]
        flat = sympy.Matrix([[x for row in m.rows for x in row] for m in basis])
        assert flat.rank() == n * n - 1


def test_structure_table_export_keys():
    js = json.loads(structure_table_json(build_structure_table(2)))
    assert "[1,2]x[2,1]" in js
    assert js["[1,2]x[2,1]"] == ["0", "0", "-1"]


def sympy_matrix(n, coeffs):
    """sum c * basis(idx) written out from the basis definition, in sympy."""
    m = sympy.zeros(n, n)
    for idx, c in coeffs.items():
        c = sympy.Rational(c.numerator, c.denominator)
        if isinstance(idx, OffDiag):
            m[idx.i - 1, idx.j - 1] += c
        else:
            m[idx.i - 1, idx.i - 1] += c
            m[0, 0] -= c
    return m


@st.composite
def coefficient_pairs(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    coeffs = st.dictionaries(st.sampled_from(basis_indices(n)), coeff)
    return n, draw(coeffs), draw(coeffs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(coefficient_pairs())
def test_bracket_is_sympy_commutator(pair):
    n, cx, cy = pair
    x, y = AlgebraElement.from_coeffs(n, cx), AlgebraElement.from_coeffs(n, cy)
    X, Y = sympy_matrix(n, cx), sympy_matrix(n, cy)
    got = bracket(x, y).to_matrix()
    got = sympy.Matrix(n, n, lambda i, j: sympy.Rational(str(got[i, j])))
    assert got == X * Y - Y * X
    assert AlgebraElement.from_matrix(x.to_matrix()) == x
    assert AlgebraElement.from_matrix(y.to_matrix()) == y


class TestKernelCounts:
    def test_structure_table_makes_no_dense_product(self, monkeypatch):
        matmuls, brackets = [], []
        matmul, bracket_of = RMatrix.__matmul__, algebra.bracket

        def counted_matmul(a, b):
            matmuls.append(a.n)
            return matmul(a, b)

        def counted_bracket(x, y):
            brackets.append((x, y))
            return bracket_of(x, y)

        monkeypatch.setattr(RMatrix, "__matmul__", counted_matmul)
        monkeypatch.setattr(algebra, "bracket", counted_bracket)
        table = build_structure_table(5)
        assert brackets == []
        assert 24 * 24 == len(list(table.items())) == table.coeffs[..., 0].size
        assert matmuls == []
        # a dense product still goes through the counter
        RMatrix.identity(2) @ RMatrix.identity(2)
        assert matmuls == [2]
