import itertools
from fractions import Fraction

import pytest

from slnfib.algebra import (
    AlgebraElement,
    Diag,
    OffDiag,
    basis_indices,
    basis_is_independent,
    basis_matrix,
    bracket,
    build_structure_table,
    dims,
    expected_offdiag_bracket,
    structure_table_json,
)
from slnfib.errors import DimensionError
from slnfib.linalg import RMatrix


class TestBasisMatrix:
    def test_offdiag_n2(self):
        assert basis_matrix(OffDiag(1, 2), 2) == RMatrix([[0, 1], [0, 0]])

    def test_diag_n2(self):
        assert basis_matrix(Diag(2), 2) == RMatrix([[-1, 0], [0, 1]])

    def test_diag_n3(self):
        assert basis_matrix(Diag(3), 3) == RMatrix([[-1, 0, 0], [0, 0, 0], [0, 0, 1]])

    def test_all_traceless(self):
        for n in (2, 3, 4, 5):
            for idx in basis_indices(n):
                assert basis_matrix(idx, n).trace() == 0

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            basis_matrix(OffDiag(1, 4), 3)
        with pytest.raises(DimensionError):
            basis_matrix(Diag(1), 3)


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
        assert len(t.table) == 9
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
    for n in (2, 3, 4, 5):
        assert basis_is_independent(n)


def test_structure_table_export_keys():
    js = structure_table_json(build_structure_table(2))
    assert "[1,2]x[2,1]" in js
    assert js["[1,2]x[2,1]"] == ["0", "0", "-1"]
