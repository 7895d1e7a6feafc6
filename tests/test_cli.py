import contextlib
import copy
import enum
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from slnfib import cli
from slnfib.algebra import (
    Diag,
    OffDiag,
    StructureTable,
    basis_indices,
    build_structure_table,
)
from slnfib.cli import main
from slnfib.complexes import coordinate_cochain, torus_complex
from slnfib.foliation import (
    ga_suspension,
    linear_torus_spec,
    product_foliation,
    unipotent_torus_spec,
)
from slnfib.groups import GAElement
from slnfib.linalg import MAX_DIM
from slnfib.serialize import dump_foliation_spec, scalar_cochain_to_json
from slnfib.tischler import RationalizeConfig, pipeline_sln
from test_golden import linear_form


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestVerifyBrackets:
    def test_n3_passes(self, capsys):
        code, rep = run(capsys, ["verify-brackets", "--n", "3"])
        assert code == 0
        assert rep["ok"] and not rep["violations"]
        assert rep["offdiag_pairs_checked"] == 36

    def test_table_included(self, capsys):
        _, rep = run(capsys, ["verify-brackets", "--n", "2"])
        assert rep["table"]["[1,2]x[2,1]"] == ["0", "0", "-1"]

    def test_out_of_range_n(self, capsys):
        code, _ = run(capsys, ["verify-brackets", "--n", "9"])
        assert code == 2

    @staticmethod
    def flipped_table(monkeypatch, n, a, b):
        """Let verify-brackets see the table with the sign of [a, b] flipped."""
        idxs = basis_indices(n)
        coeffs = build_structure_table(n).coeffs.copy()
        coeffs[idxs.index(a), idxs.index(b)] *= -1
        flipped = StructureTable(n, coeffs)
        monkeypatch.setattr(cli, "build_structure_table", lambda n: flipped)

    def test_flipped_offdiag_entry_names_every_violation(self, capsys, monkeypatch):
        self.flipped_table(monkeypatch, 3, OffDiag(1, 2), OffDiag(2, 1))
        code, rep = run(capsys, ["verify-brackets", "--n", "3"])
        assert code == 3 and rep["ok"] is False
        # table order: a-major, and for one pair antisymmetry before identity
        assert rep["violations"] == [
            "antisymmetry OffDiag(i=1, j=2) OffDiag(i=2, j=1)",
            "identity [OffDiag(i=1, j=2),OffDiag(i=2, j=1)]",
            "antisymmetry OffDiag(i=2, j=1) OffDiag(i=1, j=2)",
        ]

    def test_flipped_diagonal_row_breaks_only_antisymmetry(self, capsys, monkeypatch):
        self.flipped_table(monkeypatch, 3, Diag(2), OffDiag(1, 2))
        code, rep = run(capsys, ["verify-brackets", "--n", "3"])
        assert code == 3 and rep["ok"] is False
        assert rep["violations"] == [
            "antisymmetry OffDiag(i=1, j=2) Diag(i=2)",
            "antisymmetry Diag(i=2) OffDiag(i=1, j=2)",
        ]

    def test_max_dim_table_is_integer_commutators(self, capsys):
        n = MAX_DIM
        code, rep = run(capsys, ["verify-brackets", "--n", str(n)])
        assert code == 0
        assert rep["ok"] and rep["violations"] == []
        assert rep["offdiag_pairs_checked"] == 56 ** 2
        basis = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    basis[f"[{i + 1},{j + 1}]"] = np.zeros((n, n), dtype=np.int64)
                    basis[f"[{i + 1},{j + 1}]"][i, j] = 1
        for i in range(1, n):
            basis[f"[{i + 1}]"] = np.zeros((n, n), dtype=np.int64)
            basis[f"[{i + 1}]"][i, i] = 1
            basis[f"[{i + 1}]"][0, 0] = -1
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        expected = {}
        for ka, a in basis.items():
            for kb, b in basis.items():
                c = a @ b - b @ a
                expected[f"{ka}x{kb}"] = [int(c[i, j]) for i, j in off] + [
                    int(c[i, i]) for i in range(1, n)
                ]
        got = {key: [Fraction(c) for c in row] for key, row in rep["table"].items()}
        assert got == expected


class TestDecompose:
    def test_upper_triangular(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json", [[2.0, 1.0], [0.0, 0.5]])
        code, rep = run(capsys, ["decompose", path])
        assert code == 0
        assert rep["n"] == 2
        assert abs(rep["chart"][0] - math.log(2)) < 1e-9
        assert abs(rep["chart"][1] - 0.5) < 1e-9
        assert rep["split"]["g1"] == []

    def test_sl3_split_sizes(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "m3.json",
            [[1.0, 0.5, 0.25], [0.0, 2.0, 0.125], [0.0, 0.0, 0.5]],
        )
        code, rep = run(capsys, ["decompose", path])
        assert code == 0
        assert len(rep["chart"]) == 5
        assert len(rep["split"]["g1"]) == 3 and len(rep["split"]["g2"]) == 2

    def test_split_sizes_n2_to_n8(self, capsys, tmp_path):
        # g1 then g2 is the chart, and g2, the R^2 factor, its last two
        # coordinates; the inputs are L U for unit triangular integer L and U
        rng = np.random.default_rng(5)
        for n in range(2, 9):
            lower = np.tril(rng.integers(-2, 3, (n, n)), -1) + np.eye(n)
            upper = np.triu(rng.integers(-2, 3, (n, n)), 1) + np.eye(n)
            path = write_json(tmp_path, f"n{n}.json", (lower @ upper).tolist())
            code, rep = run(capsys, ["decompose", path])
            assert code == 0 and len(rep["chart"]) == n * (n + 1) // 2 - 1
            assert rep["split"]["g1"] + rep["split"]["g2"] == rep["chart"]
            assert len(rep["split"]["g2"]) == 2

    def test_non_unimodular_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "bad.json", [[2.0, 0.0], [0.0, 1.0]])
        code, _ = run(capsys, ["decompose", path])
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _ = run(capsys, ["decompose", str(tmp_path / "none.json")])
        assert code == 2


class TestCheckFoliation:
    def test_product_spec_passes(self, capsys, tmp_path, product_spec):
        path = write_json(tmp_path, "spec.json", dump_foliation_spec(product_spec))
        code, rep = run(capsys, ["check-foliation", path])
        assert code == 0
        assert rep["ok"]
        assert rep["maurer_cartan"]["flat"] and rep["maurer_cartan"]["surjective"]
        assert rep["equivariance"]["max_deviation"] < 1e-9
        assert rep["cochain_consistency"] < 1e-8

    def test_rank_deficient_spec_exit_3(self, capsys, tmp_path):
        spec = linear_torus_spec(8, [[1.0, 0.0], [0.0, 0.0]])
        path = write_json(tmp_path, "flat.json", dump_foliation_spec(spec))
        code, rep = run(capsys, ["check-foliation", path])
        assert code == 3
        assert not rep["ok"]

    def test_malformed_spec_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "broken.json", {"group": "SL2"})
        code, _ = run(capsys, ["check-foliation", path])
        assert code == 2

    @pytest.mark.parametrize(
        "base, group, message",
        [
            ("r2", "Rx", "unknown group 'Rx'"),
            ("r2", "XYZ", "unknown group 'XYZ'"),
            ("sl2", "XYZ", "unknown group 'XYZ'"),
            ("r0", "R0", "unknown group 'R0'"),
            ("r2", 5, "unknown group 5"),
            ("sl2", "GA", "GA element"),
            ("ga", "SL2", "bad matrix"),
            ("sl3", "SL2", "group 'SL2' needs 2x2 matrices"),
            ("r2_one_image", "R2", "holonomy needs 2 images"),
            ("ga_bool", "GA", "finite numbers, got [True, 0.5]"),
            ("ga_string", "GA", "finite numbers, got [2.0, '0.5']"),
            ("ga_huge", "GA", "finite numbers, got [1000"),
        ],
    )
    def test_exit_2_on_bad_element_shape_or_group(
        self, capsys, tmp_path, product_spec, base, group, message
    ):
        spec = boundary_spec(base, product_spec)
        spec["group"] = group
        path = write_json(tmp_path, "bad.json", spec)
        code = main(["check-foliation", path])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("input error: ")
        assert message in err

    @pytest.mark.parametrize("field", ["holonomy", "developing"])
    @pytest.mark.parametrize("mixed", [False, True], ids=["one-stack", "mixed-sizes"])
    def test_sl2_element_of_another_size_is_named(
        self, capsys, tmp_path, product_spec, field, mixed
    ):
        """Elements all 3x3 (read as one stack) or one 3x3 among 2x2 ones."""
        obj, eye3 = dump_foliation_spec(product_spec), np.eye(3).tolist()
        if field == "holonomy":
            obj["holonomy"] = [obj["holonomy"][0], eye3] if mixed else [eye3, eye3]
        else:
            obj["developing"] = {
                k: eye3 if k == "1,1" or not mixed else v
                for k, v in obj["developing"].items()
            }
        path = write_json(tmp_path, "bad.json", obj)
        for argv in (["check-foliation", path], ["pipeline", path, "--epsilon", "0.01"]):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert (out, err) == ("", "input error: SL(2) element must be 2x2, got 3x3\n")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["r2_scalar_edge", "ga_holonomy", "r2_developing"])
    def test_exit_2_on_non_finite_value(self, capsys, tmp_path, where, bad):
        if where == "ga_holonomy":
            spec = boundary_spec("ga", None)
            spec["holonomy"][0][1] = bad
            message = "finite numbers"
        else:
            spec = boundary_spec("r2", None)
            if where == "r2_scalar_edge":
                spec["scalar_cochains"][0]["0-1"] = bad
                message = "non-finite scalar"
            else:
                spec["developing"]["0,0"][0] = bad
                message = "finite numbers"
        path = write_json(tmp_path, "bad.json", spec)
        code = main(["check-foliation", path])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("input error: ")
        assert message in err


def boundary_spec(base, product_spec):
    if base == "sl2":
        return dump_foliation_spec(product_spec)
    if base.startswith("ga"):
        spec = dump_foliation_spec(ga_suspension(4, GAElement(2.0, 0.5)))
        # JSON booleans and numeric strings are not numbers
        if base == "ga_bool":
            spec["holonomy"][0] = [True, 0.5]
        if base == "ga_string":
            spec["holonomy"][0] = [2.0, "0.5"]
        if base == "ga_huge":
            spec["holonomy"][0] = [10 ** 400, 0.5]
        return spec
    if base == "sl3":
        k = torus_complex(1, 3)
        zero = [[0.0] * 3] * 3
        ident = [[1.0 if i == j else 0.0 for j in range(3)] for i in range(3)]
        return {
            "torus": {"d": 1, "m": 3},
            "cochain": {f"{u}-{v}": zero for u, v in k.edges},
            "holonomy": [ident],
            "developing": {str(x): ident for x in range(9)},
        }
    spec = dump_foliation_spec(linear_torus_spec(4, [[1.0, 0.0], [0.0, 1.0]]))
    if base == "r0":
        spec["scalar_cochains"] = []
        spec["holonomy"] = [[], []]
        spec["developing"] = {z: [] for z in spec["developing"]}
    if base == "r2_one_image":
        spec["holonomy"] = spec["holonomy"][:1]
    return spec


def mixed_cochain_file(tmp_path, m):
    k = torus_complex(2, m)
    w = coordinate_cochain(k, 0).scale(1.0) + coordinate_cochain(k, 1).scale(
        math.sqrt(2)
    )
    return write_json(
        tmp_path,
        "mixed.json",
        {"torus": {"d": 2, "m": m}, "cochain": scalar_cochain_to_json(w)},
    )


class TestTischler:
    def test_sqrt2_numbers(self, capsys, tmp_path):
        path = mixed_cochain_file(tmp_path, 8)
        code, rep = run(capsys, ["tischler", path, "--epsilon", "0.01"])
        assert code == 0
        assert rep["periods"] == ["1", "17/12"]
        assert rep["q"] == 12
        assert rep["pullback_periods"] == [12, 17]
        assert rep["sup_change"] <= 0.01
        assert rep["submersion"]["pass"]
        assert set(rep["fiber_components"]) == {1}

    def test_budget_infeasible_exit_2(self, capsys, tmp_path):
        path = mixed_cochain_file(tmp_path, 8)
        code, _ = run(
            capsys,
            ["tischler", path, "--epsilon", "1e-9", "--max-denominator", "100"],
        )
        assert code == 2

    @pytest.mark.parametrize("slope, code", [(0.0, 3), (1.0, 0)])
    def test_circle_submersion(self, capsys, tmp_path, slope, code):
        # on T^1 the edges are the top simplices: the zero form is singular
        # on every edge, dx on none
        w = coordinate_cochain(torus_complex(1, 4), 0).scale(slope)
        path = write_json(
            tmp_path,
            "circle.json",
            {"torus": {"d": 1, "m": 4}, "cochain": scalar_cochain_to_json(w)},
        )
        got, rep = run(capsys, ["tischler", path, "--epsilon", "0.01"])
        assert got == code
        failing = [] if code == 0 else [0, 1, 2, 3]
        assert rep["submersion"] == {"pass": code == 0, "failing_simplices": failing}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_edge_exit_2(self, capsys, tmp_path, bad):
        w = scalar_cochain_to_json(coordinate_cochain(torus_complex(2, 8), 0))
        w["0-1"] = bad
        path = write_json(
            tmp_path, "nan.json", {"torus": {"d": 2, "m": 8}, "cochain": w}
        )
        code = main(["tischler", path, "--epsilon", "0.01"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("input error: non-finite scalar")

    @pytest.mark.parametrize(
        "torus",
        [
            {"m": 4},
            {"d": 2},
            5,
            [2, 4],
            {"d": "two", "m": 4},
            {"d": 2, "m": math.inf},
            {"d": 2, "m": 8.9},
            {"d": True, "m": 8},
            {"d": 2, "m": "8"},
        ],
    )
    def test_bad_torus_field_exit_2(self, capsys, tmp_path, torus):
        path = write_json(tmp_path, "torus.json", {"torus": torus, "cochain": {}})
        code = main(["tischler", path, "--epsilon", "0.01"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("input error: field 'torus'")

    @pytest.mark.parametrize(
        "obj",
        [
            {"vertices": 3, "edges": [[0, 1], [1, 5]], "cochain": {}},
            {"vertices": "3", "edges": [[0, 1]], "cochain": {}},
            {"vertices": 3.9, "edges": [[0, 1]], "cochain": {}},
            # rejected before any per-vertex allocation
            {"vertices": 10 ** 9, "edges": [[0, 1]]},
        ],
        ids=["explicit", "string-count", "float-count", "huge-count"],
    )
    def test_explicit_complex_exit_2(self, capsys, tmp_path, obj):
        path = write_json(tmp_path, "complex.json", obj)
        code = main(["tischler", path, "--epsilon", "0.01"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == 'input error: a complex is given as {"torus": {"d": d, "m": m}}\n'

    @pytest.mark.parametrize(
        "torus", [{"d": 2, "m": 257}, {"d": 3, "m": 41}], ids=["t2-m257", "t3-m41"]
    )
    def test_torus_over_vertex_cap_exit_2(self, capsys, tmp_path, torus):
        # one past MAX_VERTICES, rejected before the torus is built
        path = write_json(tmp_path, "big.json", {"torus": torus, "cochain": {}})
        code = main(["tischler", path, "--epsilon", "0.01"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("input error: torus with m=")

    @pytest.mark.parametrize(
        "value, message",
        [
            (1e308, "period 0 "),
            # each edge fits a float, their exact sum does not
            (10 ** 308, "period 0 "),
            # rejected where the JSON is read
            (10 ** 400, f"scalar {10 ** 400} is beyond the float range"),
        ],
        ids=["inf-sum", "huge-int-sum", "huge-int"],
    )
    def test_non_finite_period_exit_2(self, capsys, tmp_path, value, message):
        w = scalar_cochain_to_json(coordinate_cochain(torus_complex(1, 3), 0))
        w = {key: value for key in w}
        path = write_json(
            tmp_path, "big.json", {"torus": {"d": 1, "m": 3}, "cochain": w}
        )
        code = main(["tischler", path, "--epsilon", "0.01"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"input error: {message}")

    @pytest.mark.parametrize(
        "make, message",
        [
            # one edge of a cochain that is not closed
            (
                lambda edges: {"0-3": 10 ** 400},
                r"scalar 10{400} is beyond the float range",
            ),
            # the closed cochain 10**400 * d(vertex index)
            (
                lambda edges: {f"{u}-{v}": 10 ** 400 * (v - u) for u, v in edges},
                r"scalar -?\d{401} is beyond the float range",
            ),
            # three edges that fit a float around a triangle whose exact
            # coboundary does not
            (
                lambda edges: {"0-3": 10 ** 308, "3-4": 10 ** 308, "0-4": -(10 ** 308)},
                "rationalize requires a closed cochain, coboundary inf",
            ),
        ],
        ids=["one-edge", "closed", "in-range-edges"],
    )
    def test_beyond_float_range_exit_2(self, capsys, tmp_path, make, message):
        w = make(torus_complex(2, 3).edges.tolist())
        path = write_json(
            tmp_path, "huge.json", {"torus": {"d": 2, "m": 3}, "cochain": w}
        )
        code = main(["tischler", path, "--epsilon", "0.01"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert re.fullmatch(f"input error: {message}\n", err)

    @pytest.mark.parametrize(
        "text",
        [
            b'{"torus": {"d": 2, "m": 3}, "cochain": {"0-1": ' + b"1" * 5000 + b"}}",
            b'{"torus": \xff}',
        ],
        ids=["int-digit-limit", "not-utf8"],
    )
    def test_unparsable_file_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        code = main(["tischler", str(path), "--epsilon", "0.01"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"input error: cannot read {path}: ")

    def test_overflowing_circle_map_exit_2(self, capsys, tmp_path):
        # the period is 0.5, so q = 2, and 2 * 1e308 overflows on the tree
        # path to vertex 1
        w = {"0-1": 1e308, "1-2": -1e308, "2-0": 0.5}
        path = write_json(
            tmp_path, "overflow.json", {"torus": {"d": 1, "m": 3}, "cochain": w}
        )
        code = main(["tischler", path, "--epsilon", "0.01"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "input error: circle map value at vertex 1 is not finite\n"

    @pytest.mark.parametrize(
        "a, code, err",
        [
            (
                1e12,
                2,
                "input error: circle map wraps 3000000000000 times on edge (0,1), "
                "beyond the integer height range\n",
            ),
            (1e300, 3, "check failed: edge increment mismatch 2.500e-01 on (1,5)\n"),
        ],
        ids=["past-the-heights", "past-the-increments"],
    )
    def test_wide_form_refused_by_the_circle_map(self, capsys, tmp_path, a, code, err):
        # a dx + sqrt(2) dy on T^2 at m = 4: at 1e12 each x edge wraps 3e12
        # times, past the int64 lift; at 1e300 the edge increments no longer
        # fit the map; no numpy warning may reach the run
        w = linear_form(2, 4, (a, math.sqrt(2)))
        path = write_json(tmp_path, "wide.json", {"torus": {"d": 2, "m": 4}, "cochain": w})
        assert main(["tischler", path, "--epsilon", "0.01"]) == code
        assert capsys.readouterr() == ("", err)

    @pytest.mark.parametrize(
        "a, m, epsilon, code, report, err",
        [
            (1.0, 8, "inf", 0, (["1", "1"], 1), ""),
            (1.0, 8, "1e308", 0, (["1", "1"], 1), ""),
            *[
                (
                    1.0,
                    8,
                    epsilon,
                    2,
                    None,
                    f"error: no convergent of 1.4142135623730954 within {epsilon} under "
                    "denominator cap 1000000 (best error 1.595e-12)\n",
                )
                for epsilon in ("5e-324", "1e-300")
            ],
            (
                1e308,
                4,
                "0.01",
                2,
                None,
                "input error: circle map value at vertex 1 is not finite\n",
            ),
            (
                2.0 ** 60,
                4,
                "0.01",
                3,
                None,
                "check failed: edge increment mismatch 2.500e-01 on (1,5)\n",
            ),
        ],
        ids=["eps-inf", "eps-1e308", "eps-5e-324", "eps-1e-300", "period-1e308", "period-2^60"],
    )
    def test_float_range_edges_keep_their_reports(
        self, capsys, tmp_path, a, m, epsilon, code, report, err
    ):
        # a dx + sqrt(2) dy on T^2 at the ends of the float range, in budget
        # and in period; the common-denominator scan must neither overflow
        # nor warn, and must leave every exit code and message as it was
        w = linear_form(2, m, (a, math.sqrt(2)))
        path = write_json(tmp_path, "edge.json", {"torus": {"d": 2, "m": m}, "cochain": w})
        assert main(["tischler", path, "--epsilon", epsilon]) == code
        out, got = capsys.readouterr()
        assert got == err
        if report is not None:
            rep = json.loads(out)
            assert (rep["periods"], rep["q"]) == report

    @pytest.mark.parametrize(
        "coeffs, exact",
        [
            ((Fraction(1, 3), Fraction(3, 2)), lambda x: f"{x.numerator}/{x.denominator}"),
            # 3 dx + dy: integral edge values as JSON ints, the others floats
            ((Fraction(3), Fraction(1)), lambda x: int(x) if x.denominator == 1 else float(x)),
        ],
        ids=["p/q", "int"],
    )
    def test_exact_values_read_as_nearest_floats(self, capsys, tmp_path, coeffs, exact):
        m = 3
        k = torus_complex(2, m)
        values = {
            f"{u}-{v}": sum(c * (b - a) for c, a, b in zip(coeffs, zu, zv)) / m
            for (u, v), (zu, zv) in zip(k.edges.tolist(), k.lifts.tolist())
        }
        reports = []
        for name, convert in (("exact", exact), ("nearest", float)):
            cochain = {key: convert(x) for key, x in values.items()}
            path = write_json(
                tmp_path, f"{name}.json", {"torus": {"d": 2, "m": m}, "cochain": cochain}
            )
            code = main(["tischler", path, "--epsilon", "0.01"])
            reports.append((code, *capsys.readouterr()))
        assert reports[0] == reports[1]
        assert reports[0][0] == 0

    def test_missing_cochain_field_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "nocochain.json", {"torus": {"d": 2, "m": 8}})
        code, _ = run(capsys, ["tischler", path, "--epsilon", "0.01"])
        assert code == 2


def overflowing_rk_spec():
    """An R^2 spec on T^2, m = 4, with three edges around triangle (0, 1, 5)
    whose coboundary overflows."""
    spec = dump_foliation_spec(linear_torus_spec(4, [[1, 0], [0, 1]]))
    w = {key: 0 for key in spec["scalar_cochains"][0]}
    w.update({"0-1": 10 ** 308, "1-5": 10 ** 308, "0-5": -(10 ** 308)})
    spec["scalar_cochains"][0] = w
    return spec


@pytest.mark.parametrize("command", ["check-foliation", "pipeline"])
def test_overflowing_rk_coboundary_is_not_flat(capsys, tmp_path, command):
    # not flat, with no traceback and no numpy warning
    argv = [command, write_json(tmp_path, "overflow.json", overflowing_rk_spec())]
    if command == "pipeline":
        argv += ["--epsilon", "0.01"]
    code = main(argv)

    def refuse(token):
        pytest.fail(f"report is not strict JSON: bare {token}")

    rep = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert code == 3 and not rep["ok"]
    mc = rep["maurer_cartan"] if command == "check-foliation" else rep["stages"][0]
    assert not mc["flat"] and 0 in mc["failing_triangles"]
    assert mc["max_flatness_residual"] == "Infinity"


def sl2_product_m8():
    """The dumped SL(2) product spec of GA holonomy (1.5, 0.3) at m = 8."""
    return dump_foliation_spec(product_foliation(ga_suspension(8, GAElement(1.5, 0.3))))


def overflowing_t1_spec():
    """An SL(2) spec on T^1, m = 4: zero cochain, identity holonomy and
    identity samples, but for shears of +-1.5e308 at the points 0 and 1,
    whose R^2 chart steps overflow."""
    ident = [[1.0, 0.0], [0.0, 1.0]]
    developing = {str(x): ident for x in range(12)}
    developing["0"] = [[1, 1.5e308], [0, 1]]
    developing["1"] = [[1, -1.5e308], [0, 1]]
    return {
        "torus": {"d": 1, "m": 4},
        "group": "SL2",
        "cochain": {f"{u}-{(u + 1) % 4}": [[0.0, 0.0], [0.0, 0.0]] for u in range(4)},
        "holonomy": [ident],
        "developing": developing,
    }


def test_non_finite_projected_component_is_not_submersive(capsys, tmp_path):
    # the candidate combinations of an infinite component are inf or NaN,
    # built with no numpy warning, and none of them passes
    path = write_json(tmp_path, "t1.json", overflowing_t1_spec())
    code = main(["pipeline", path, "--epsilon", "0.01"])
    out, err = capsys.readouterr()
    assert (code, err) == (3, "")
    failure = json.loads(out)["stages"][-1]
    assert failure["reason"] == "no submersive component combination found"


def test_overflowing_projected_step_is_not_closed(capsys, tmp_path):
    # a valid T^2 spec whose projected R^2 cochain has infinite values: the
    # closedness check refuses it, and building it refuses nothing
    spec = sl2_product_m8()
    spec["developing"]["0,0"] = [[1, 1.5e308], [0, 1]]
    spec["developing"]["1,0"] = [[1, -1.5e308], [0, 1]]
    path = write_json(tmp_path, "t2.json", spec)
    code = main(["pipeline", path, "--epsilon", "0.01"])
    out, err = capsys.readouterr()
    assert (code, err) == (3, "")
    assert json.loads(out)["stages"][-1] == {
        "stage": "failure",
        "reason": "projected cochain is not closed: max coboundary inf",
    }


R2_NEEDS = "input error: R2 spec needs 2 scalar cochains and no other cochain\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda spec: spec.update(cochain=sl2_product_m8()["cochain"]), R2_NEEDS),
        (lambda spec: spec.pop("scalar_cochains"), R2_NEEDS),
        (lambda spec: spec.update(scalar_cochains=spec["scalar_cochains"][:1]), R2_NEEDS),
        (lambda spec: spec.update(scalar_cochains=[]), R2_NEEDS),
        (
            lambda spec: spec.update(group="GA"),
            "input error: GA spec needs a cochain of 2x2 matrices and no other cochain\n",
        ),
    ],
    ids=["both fields", "neither field", "one of two", "empty list", "relabelled GA"],
)
@pytest.mark.parametrize("command", ["check-foliation", "pipeline"])
def test_spec_reads_one_cochain_field(capsys, tmp_path, edit, message, command):
    spec = dump_foliation_spec(linear_torus_spec(8, [[1, math.sqrt(2)], [0.3, 1]]))
    edit(spec)
    argv = [command, write_json(tmp_path, "spec.json", spec)]
    code = main(argv + (["--epsilon", "0.01"] if command == "pipeline" else []))
    assert (code, *capsys.readouterr()) == (2, "", message)


@pytest.mark.parametrize("command", ["check-foliation", "pipeline"])
def test_overflowing_holonomy_names_its_first_triangle(capsys, tmp_path, command):
    # exp of [[0, 1e300], [1e300, 0]] on edge 0-1 overflows; that edge
    # borders triangles 1 = (0, 1, 9) and 112
    spec = dump_foliation_spec(product_foliation(ga_suspension(8, GAElement(1.5, 0.3))))
    spec["cochain"]["0-1"] = [[0, 1e300], [1e300, 0]]
    argv = [command, write_json(tmp_path, "overflow.json", spec)]
    if command == "pipeline":
        argv += ["--epsilon", "0.01"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (
        "input error: holonomy residual of triangle 1 (vertices 0, 1, 9) is not finite\n"
    )


def test_log_ball_refusal_names_its_first_edge(capsys, tmp_path):
    # each edge step is I + cochain exactly, and edge 0, (0, 9), is the first
    # whose cochain value has 2-norm 1: on the boundary of the log ball
    spec = unipotent_torus_spec(3, 3, (1.0, 2.0, 3.0))
    gaps = np.linalg.norm(spec.cochain, 2, axis=(-2, -1))
    assert np.flatnonzero(gaps >= 1)[0] == 0
    assert spec.complex.edges[0].tolist() == [0, 9]
    path = write_json(tmp_path, "unipotent.json", dump_foliation_spec(spec))
    assert main(["check-foliation", path]) == 2
    assert capsys.readouterr() == (
        "",
        "error: matrix_log of developing step on edge 0-9: ||a - I|| = 1 >= 1\n",
    )


def test_log_ball_refusal_of_a_huge_sample_names_its_first_edge(capsys, tmp_path):
    # D(0, 0) = diag(1e300, 1e-300) makes each step from vertex 0 finite but
    # far from I; edge 0, (0, 8), is the first of them
    spec = dump_foliation_spec(product_foliation(ga_suspension(8, GAElement(1.5, 0.3))))
    spec["developing"]["0,0"] = [[1e300, 0], [0, 1e-300]]
    assert main(["check-foliation", write_json(tmp_path, "huge.json", spec)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: matrix_log of developing step on edge 0-8: ||a - I|| = 1e+300 >= 1\n",
    )


class TestPipeline:
    def test_product_spec_ok(self, capsys, tmp_path, product_spec):
        path = write_json(tmp_path, "prod.json", dump_foliation_spec(product_spec))
        code, rep = run(capsys, ["pipeline", path, "--epsilon", "0.01"])
        assert code == 0
        assert rep["ok"]
        assert rep["stages"][-1]["stage"] == "fiber_census"

    def test_zero_spec_exit_3(self, capsys, tmp_path):
        spec = linear_torus_spec(8, [[0.0, 0.0], [0.0, 0.0]])
        path = write_json(tmp_path, "zero.json", dump_foliation_spec(spec))
        code, rep = run(capsys, ["pipeline", path, "--epsilon", "0.01"])
        assert code == 3
        assert not rep["ok"]

    def test_rationalized_cochain_fails_submersion(self, capsys, tmp_path):
        # R^2 on T^1 at m = 8: the first component, 8e-9 dx, rises 1e-9 on
        # every edge, over EQ_TOL, so it is chosen; its period rationalizes
        # to 0 within 0.01, and the moved cochain is 0 on all eight edges,
        # the top simplices of T^1
        spec = linear_torus_spec(8, [[8e-9], [0.3]])
        path = write_json(tmp_path, "flat.json", dump_foliation_spec(spec))
        code = main(["pipeline", path, "--epsilon", "0.01"])
        out, err = capsys.readouterr()
        assert (code, err) == (3, "")
        stages = json.loads(out)["stages"]
        assert stages[-5] == {"stage": "component_selection", "coefficients": [1, 0]}
        assert stages[-3] == {"stage": "circle_map", "q": 1, "pullback_periods": [0]}
        assert stages[-2] == {
            "stage": "submersion",
            "pass": False,
            "failing_simplices": list(range(8)),
        }
        assert stages[-1] == {
            "stage": "failure",
            "reason": "rationalized cochain fails submersion",
        }

    def test_ga_spec_has_no_product_structure(self, capsys, tmp_path):
        spec = ga_suspension(8, GAElement(1.5, 0.3))
        path = write_json(tmp_path, "ga.json", dump_foliation_spec(spec))
        code = main(["pipeline", path, "--epsilon", "0.01"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "input error: no product structure on group GA\n"

    @pytest.mark.parametrize(
        "m, rows",
        [(8, [[1.0, math.sqrt(2)]]), (4, np.eye(3).tolist())],
        ids=["R1-on-T2", "R3-on-T3"],
    )
    def test_abelian_spec_other_than_r2_fails(self, capsys, tmp_path, m, rows):
        # R^k for k != 2 is refused after the Maurer-Cartan stage
        spec = linear_torus_spec(m, rows)
        path = write_json(tmp_path, "rk.json", dump_foliation_spec(spec))
        code, rep = run(capsys, ["pipeline", path, "--epsilon", "0.01"])
        assert code == 3 and not rep["ok"]
        assert [s["stage"] for s in rep["stages"]] == ["maurer_cartan", "failure"]
        reason = f"abelian spec must be R2, got R{len(rows)}"
        assert rep["stages"][-1]["reason"] == reason


@pytest.mark.parametrize("n", [3, 4])
def test_unipotent_sln_spec_end_to_end(capsys, tmp_path, n):
    # the last two chart coordinates are r_(n-3, n-1)/r_(n-3, n-3) and
    # r_(n-2, n-1)/r_(n-2, n-2): here (z0 + sqrt(2) z2)/m and z1/m, whose
    # periods (1, 0, sqrt(2)) round to (1, 0, 17/12) within 0.01
    spec = unipotent_torus_spec(n, 4, (1.0, 1.0, math.sqrt(2)))
    path = write_json(tmp_path, f"sl{n}.json", dump_foliation_spec(spec))
    code, rep = run(capsys, ["check-foliation", path])
    mc = rep["maurer_cartan"]
    assert code == 3 and mc["flat"] and not mc["surjective"]  # d = 3 < dim sl(n)
    code, rep = run(capsys, ["pipeline", path, "--epsilon", "0.01"])
    assert code == 0 and rep["ok"]
    stages = {s["stage"]: s for s in rep["stages"]}
    assert stages["rationalize"]["periods"] == ["1", "0", "17/12"]
    assert stages["rationalize"]["q"] == 12
    assert stages["circle_map"]["pullback_periods"] == [12, 0, 17]
    assert stages["fiber_census"]["components"] == [1] * 10


nonzero_rationals = st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)
)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([3, 4]),
    m=st.sampled_from([3, 4]),
    coeffs=st.tuples(nonzero_rationals, nonzero_rationals, nonzero_rationals),
)
def test_unipotent_sln_census_equals_the_gcd(n, m, coeffs):
    # the chart coordinates (a z0 + c z2)/m and b z1/m have the exact periods
    # (a, 0, c) and (0, b, 0); within epsilon = 0.01 every period with
    # denominator <= 4 rationalizes to itself
    spec = unipotent_torus_spec(n, m, [float(x) for x in coeffs])
    report = pipeline_sln(spec, RationalizeConfig(0.01)).to_dict()
    stages = {s["stage"]: s for s in report["stages"]}
    assert report["ok"] and "failure" not in stages
    a, b, c = coeffs
    k1, k2 = stages["component_selection"]["coefficients"]
    periods = [k1 * a, k2 * b, k1 * c]
    assert stages["rationalize"]["periods"] == [str(p) for p in periods]
    q = stages["circle_map"]["q"]
    pullback = [int(p * q) for p in periods]
    assert stages["circle_map"]["pullback_periods"] == pullback
    assert stages["fiber_census"]["components"] == [math.gcd(*pullback)] * 10


class TestGolden:
    def test_roundtrip(self, capsys, tmp_path, product_spec):
        spec_path = write_json(tmp_path, "prod.json", dump_foliation_spec(product_spec))
        gold = tmp_path / "golden"
        code, _ = run(
            capsys,
            ["pipeline", spec_path, "--epsilon", "0.01", "--write-golden", str(gold)],
        )
        assert code == 0
        code, _ = run(
            capsys, ["pipeline", spec_path, "--epsilon", "0.01", "--golden", str(gold)]
        )
        assert code == 0

    def test_mismatch_exit_3(self, capsys, tmp_path, product_spec):
        spec_path = write_json(tmp_path, "prod.json", dump_foliation_spec(product_spec))
        gold = tmp_path / "golden"
        run(
            capsys,
            ["pipeline", spec_path, "--epsilon", "0.01", "--write-golden", str(gold)],
        )
        target = gold / "pipeline-prod.json"
        target.write_text(target.read_text().replace('"ok": true', '"ok": false'))
        code, _ = run(
            capsys, ["pipeline", spec_path, "--epsilon", "0.01", "--golden", str(gold)]
        )
        assert code == 3

    def test_missing_golden_exit_2(self, capsys, tmp_path, product_spec):
        spec_path = write_json(tmp_path, "prod.json", dump_foliation_spec(product_spec))
        code, _ = run(
            capsys,
            [
                "pipeline",
                spec_path,
                "--epsilon",
                "0.01",
                "--golden",
                str(tmp_path / "empty"),
            ],
        )
        assert code == 2

    @staticmethod
    def unusable_golden(capsys, option, path):
        """verify-brackets --n 2 with a golden file it cannot write or read:
        exit 2, the report on stdout, and the path in the error."""
        code = main(["verify-brackets", "--n", "2", option, str(path.parent)])
        out, err = capsys.readouterr()
        assert code == 2 and json.loads(out)["ok"]
        assert err.startswith("input error: ") and str(path) in err
        assert "Traceback" not in err

    def test_write_golden_into_a_file_exit_2(self, capsys, tmp_path):
        (tmp_path / "file").write_text("")
        self.unusable_golden(capsys, "--write-golden", tmp_path / "file" / "brackets-n2.json")

    def test_golden_that_is_a_directory_exit_2(self, capsys, tmp_path):
        (tmp_path / "brackets-n2.json").mkdir()
        self.unusable_golden(capsys, "--golden", tmp_path / "brackets-n2.json")

    def test_golden_that_is_not_utf8_exit_2(self, capsys, tmp_path):
        (tmp_path / "brackets-n2.json").write_bytes(b"\xff\xfe{}")
        self.unusable_golden(capsys, "--golden", tmp_path / "brackets-n2.json")

    def test_brackets_golden(self, capsys, tmp_path):
        gold = tmp_path / "golden"
        code, _ = run(
            capsys, ["verify-brackets", "--n", "2", "--write-golden", str(gold)]
        )
        assert code == 0
        assert (gold / "brackets-n2.json").exists()
        code, _ = run(capsys, ["verify-brackets", "--n", "2", "--golden", str(gold)])
        assert code == 0


def overflowing_edge(spec):
    # finite and traceless, but exp overflows in the triangle holonomy
    spec["cochain"][sorted(spec["cochain"])[0]] = [[1000, 0], [0, -1000]]
    return spec


def huge_int_edge(spec):
    spec["cochain"][sorted(spec["cochain"])[0]] = [[10 ** 400, 0], [0, 1]]
    return spec


def bool_edge(spec):
    spec["cochain"][sorted(spec["cochain"])[0]][0][0] = True
    return spec


def bool_holonomy(spec):
    spec["holonomy"][0] = [[True, 0], [0, True]]
    return spec


def replace_first_key(mapping, key):
    first = next(iter(mapping))
    return {key if k == first else k: v for k, v in mapping.items()}


@pytest.mark.parametrize(
    "command, make",
    [
        ("decompose", lambda spec: 5),
        ("check-foliation", lambda spec: []),
        ("tischler", lambda spec: []),
        (
            "check-foliation",
            lambda spec: dict(
                spec, developing=replace_first_key(spec["developing"], "a,b")
            ),
        ),
        ("check-foliation", lambda spec: dict(spec, holonomy=5)),
        ("check-foliation", lambda spec: dict(spec, developing=[1])),
        ("check-foliation", lambda spec: dict(spec, cochain=[1])),
        ("tischler", lambda spec: {"torus": {"d": 2, "m": 8}, "cochain": [1, 2]}),
        ("check-foliation", overflowing_edge),
        ("pipeline", overflowing_edge),
        ("decompose", lambda spec: [[10 ** 400, 0], [0, 1]]),
        ("check-foliation", huge_int_edge),
        ("decompose", lambda spec: [[True, 0], [0, True]]),
        ("check-foliation", bool_edge),
        ("check-foliation", bool_holonomy),
    ],
    ids=[
        "decompose-number",
        "check-list",
        "tischler-list",
        "developing-key",
        "holonomy-number",
        "developing-list",
        "cochain-list",
        "tischler-cochain-list",
        "check-overflow",
        "pipeline-overflow",
        "decompose-huge-int",
        "check-huge-int-edge",
        "decompose-bool",
        "check-bool-edge",
        "check-bool-holonomy",
    ],
)
def test_malformed_shape_exit_2(capsys, tmp_path, product_spec, command, make):
    path = write_json(tmp_path, "input.json", make(dump_foliation_spec(product_spec)))
    argv = [command, path]
    if command in ("tischler", "pipeline"):
        argv += ["--epsilon", "0.01"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("input error: ")


def test_singular_developing_value_exit_2(capsys, tmp_path):
    # a singular sample at the tail of edge 0 ended in a numpy traceback;
    # it is now refused where it is read, by name
    spec = dump_foliation_spec(product_foliation(ga_suspension(8, GAElement(2.0, 0.3))))
    spec["developing"]["0,0"] = [[0.0, 0.0], [0.0, 0.0]]
    code = main(["check-foliation", write_json(tmp_path, "singular.json", spec)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == 'input error: developing sample "0,0" has det 0, not in SL(2)\n'


@pytest.mark.parametrize("command", ["check-foliation", "pipeline"])
@pytest.mark.parametrize(
    "field, key, message",
    [
        ("developing", "1,1", 'developing sample "1,1" has det 1e-310, not in SL(2)'),
        ("holonomy", 1, "holonomy image 1 has det 1e-310, not in SL(2)"),
    ],
)
def test_non_unimodular_element_is_refused_by_name(
    capsys, tmp_path, command, field, key, message
):
    # det 1e-310 passed the loader and failed far from it, unnamed
    spec = dump_foliation_spec(product_foliation(ga_suspension(8, GAElement(1.5, 0.3))))
    spec[field][key] = [[1e-310, 0.0], [0.0, 1.0]]
    argv = [command, write_json(tmp_path, "tiny.json", spec)]
    if command == "pipeline":
        argv += ["--epsilon", "0.01"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize("command", ["check-foliation", "pipeline"])
@pytest.mark.parametrize(
    "field, key, a, message",
    [
        ("holonomy", 0, 0, "holonomy image 0 has a=0, not in GA"),
        ("holonomy", 0, -1.5, "holonomy image 0 has a=-1.5, not in GA"),
        ("developing", "3", 0.0, 'developing sample "3" has a=0, not in GA'),
        ("developing", "3", -2, 'developing sample "3" has a=-2, not in GA'),
    ],
)
def test_ga_element_without_positive_a_is_refused_by_name(
    capsys, tmp_path, command, field, key, a, message
):
    spec = dump_foliation_spec(ga_suspension(8, GAElement(1.5, 0.3)))
    spec[field][key][0] = a
    argv = [command, write_json(tmp_path, "ga.json", spec)]
    if command == "pipeline":
        argv += ["--epsilon", "0.01"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"input error: {message}\n"


def drop_origin(samples):
    return {k: v for k, v in samples.items() if k != "0,0"}


@pytest.mark.parametrize("command", ["check-foliation", "pipeline"])
@pytest.mark.parametrize(
    "window, message",
    [
        (drop_origin, "developing window misses 1 base vertices, first (0, 0)"),
        (lambda s: {"0,0": s["0,0"]}, "developing window misses 63 base vertices"),
        (lambda s: dict(s, **{"1,2,3": s["0,0"]}), "developing key (1, 2, 3) is not 2"),
    ],
    ids=["no-origin", "origin-only", "three-coordinates"],
)
def test_developing_window_exit_2(capsys, tmp_path, command, window, message):
    spec = dump_foliation_spec(product_foliation(ga_suspension(8, GAElement(2.0, 0.3))))
    spec["developing"] = window(spec["developing"])
    argv = [command, write_json(tmp_path, "window.json", spec)]
    if command == "pipeline":
        argv += ["--epsilon", "0.01"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: " + message)


def test_brackets_and_tischler_import_no_scipy(tmp_path):
    # scipy.linalg is imported by the float kernels that call it, and these
    # two commands call none of them
    k = torus_complex(2, 4)
    w = coordinate_cochain(k, 0).scale(1.0) + coordinate_cochain(k, 1).scale(math.sqrt(2))
    form = {"torus": {"d": 2, "m": 4}, "cochain": scalar_cochain_to_json(w)}
    path = write_json(tmp_path, "t2.json", form)
    script = (
        "import contextlib, io, sys\n"
        "from slnfib.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['verify-brackets', '--n', '3']),\n"
        f"             main(['tischler', {path!r}, '--epsilon', '0.05'])]\n"
        "print(codes, 'scipy.linalg' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_var = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        env=dict(os.environ, PYTHONPATH=path_var),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0] False\n"


# ---------------------------------------------------------------------------
# The report writer: the bytes of json.dumps(indent=2, sort_keys=True)


def stdlib_text(x):
    """The oracle: the stdlib encoder on x with each non-finite float
    replaced by its JSON name as a string."""

    def strict(y):
        if isinstance(y, dict):
            return {k: strict(v) for k, v in y.items()}
        if isinstance(y, (list, tuple)):
            return [strict(v) for v in y]
        if isinstance(y, float) and not math.isfinite(y):
            return json.dumps(y)
        return y

    return json.dumps(strict(x), indent=2, sort_keys=True)


class Sign(enum.IntEnum):  # an int subclass whose repr is not its JSON text
    MINUS = -1
    PLUS = 1


# non-ASCII, quotes, backslashes, control characters and a lone surrogate
json_strings = st.text() | st.sampled_from(
    ['"', "\\", "a\\\"b", "\x00\x1f\x7f", "\n\t\r", "é", "\u2028", "\ud800", "😀"]
)
json_floats = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]
)
json_leaves = (
    json_strings
    | json_strings.map(np.str_)
    | st.integers()
    | st.sampled_from(list(Sign))
    | st.integers(min_value=-(10 ** 400), max_value=10 ** 400)
    | st.booleans()
    | st.none()
    | json_floats
    | json_floats.map(np.float64)
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids)
    | st.lists(kids).map(tuple)
    | st.lists(json_strings)
    | st.dictionaries(json_strings, kids),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_report_writer_matches_the_stdlib_encoder(x):
    assert cli._json_text(x) == stdlib_text(x)


@pytest.mark.parametrize(
    "bad",
    [np.int64(1), {1, 2}, set(), [np.int64(1)], ["a", {"b"}], {"k": {"v"}}, np.bool_(True)],
    ids=repr,
)
def test_report_writer_refuses_what_json_dumps_refuses(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._json_text(bad)


INT64 = np.iinfo(np.int64)


def table_dict(n, coeffs):
    """The oracle's table: '[i,j]x[k,l]' -> the coefficient strings."""
    keys = [
        f"[{a.i},{a.j}]" if isinstance(a, OffDiag) else f"[{a.i}]" for a in basis_indices(n)
    ]
    return {
        f"{a}x{b}": [str(int(v)) for v in coeffs[p, q]]
        for p, a in enumerate(keys)
        for q, b in enumerate(keys)
    }


def assert_table_text(n, coeffs):
    got = cli._json_text({"n": n, "table": StructureTable(n, coeffs)})
    want = json.dumps({"n": n, "table": table_dict(n, coeffs)}, indent=2, sort_keys=True)
    if got != want:  # name the first differing line, not a diff of megabytes
        lines = itertools.zip_longest(got.split("\n"), want.split("\n"))
        k, a, b = next((k, a, b) for k, (a, b) in enumerate(lines) if a != b)
        pytest.fail(f"line {k + 1}: {a!r} != {b!r}")


@st.composite
def int64_tables(draw):
    """(n, coeffs): a (D, D, D) int64 array for n in {2, 3}, from 0, +-1, +-2,
    the int64 extremes and any int64, with some rows all zero."""
    n = draw(st.sampled_from([2, 3]))
    dim = n * n - 1
    value = st.sampled_from([0, 1, -1, 2, -2, INT64.min, INT64.max]) | st.integers(
        INT64.min, INT64.max
    )
    coeffs = draw(arrays(np.int64, (dim, dim, dim), elements=value))
    coeffs[draw(arrays(bool, (dim, dim)))] = 0
    return n, coeffs


@settings(max_examples=200, deadline=None)
@given(int64_tables())
def test_table_text_matches_the_stdlib_encoder(table):
    assert_table_text(*table)


def test_table_text_matches_the_stdlib_encoder_at_max_dim():
    dim = MAX_DIM ** 2 - 1
    rng = np.random.default_rng(8)
    values = [0, 1, -1, 2, -2, INT64.min, INT64.max, 12345]
    coeffs = rng.choice(np.array(values, np.int64), size=(dim, dim, dim))
    coeffs[rng.random((dim, dim)) < 0.5] = 0
    assert_table_text(MAX_DIM, coeffs)


def t2_form(m=8):
    k = torus_complex(2, m)
    w = coordinate_cochain(k, 0).scale(1.0) + coordinate_cochain(k, 1).scale(math.sqrt(2))
    return {"torus": {"d": 2, "m": m}, "cochain": scalar_cochain_to_json(w)}


REPORT_INPUTS = {
    "matrix": lambda spec: [[2.0, 1.0], [0.0, 0.5]],
    "t2": lambda spec: t2_form(),
    "sl2": dump_foliation_spec,
    "linear": lambda spec: dump_foliation_spec(
        linear_torus_spec(4, [[1.0, 0.5], [0.25, 1.0]])
    ),
    "overflow": lambda spec: overflowing_rk_spec(),
}


@pytest.mark.parametrize(
    "argv",
    [["verify-brackets", "--n", str(n)] for n in range(2, 9)]
    + [["decompose", "matrix"], ["tischler", "t2", "--epsilon", "0.05"]]
    + [
        [command, spec] + (["--epsilon", "0.01"] if command == "pipeline" else [])
        for command in ("check-foliation", "pipeline")
        for spec in ("sl2", "linear", "overflow")
    ],
    ids=" ".join,
)
def test_report_bytes_equal_the_stdlib_encoder(capsys, tmp_path, product_spec, argv):
    argv = [
        write_json(tmp_path, f"{a}.json", REPORT_INPUTS[a](product_spec))
        if a in REPORT_INPUTS else a
        for a in argv
    ]
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 3) and out

    def refuse(token):
        pytest.fail(f"report is not strict JSON: bare {token}")

    want = json.dumps(json.loads(out, parse_constant=refuse), indent=2, sort_keys=True)
    # lines, so that a failure names the first differing line of a large report
    assert out.split("\n") == (want + "\n").split("\n")


# ---------------------------------------------------------------------------
# Boundary fuzz: mutated valid inputs end in exit 0, 2 or 3, never a traceback


def fuzz_bases():
    """(command, valid input) pairs: a scalar cochain, GA, R^2 and SL(2)
    specs, and matrices."""
    k = torus_complex(2, 3)
    w = coordinate_cochain(k, 0) + coordinate_cochain(k, 1).scale(math.sqrt(2))
    return [
        ("tischler", {"torus": {"d": 2, "m": 3}, "cochain": scalar_cochain_to_json(w)}),
        ("check-foliation", dump_foliation_spec(ga_suspension(4, GAElement(1.5, 0.3)))),
        ("pipeline", dump_foliation_spec(linear_torus_spec(3, [[1, 0.5], [0.25, 1]]))),
        ("pipeline", dump_foliation_spec(product_foliation(ga_suspension(8, GAElement(1.5, 0.3))))),
        ("decompose", {"matrix": [[2.0, 1.0], [0.0, 0.5]]}),
        ("decompose", [[1, 2, 0], [0, 1, 0], [0, 0, 1]]),
    ]


FUZZ_BASES = fuzz_bases()
BAD_VALUES = [
    None, True, "x", "1/0", "2/3", math.nan, math.inf, -math.inf, 10 ** 400, -1e308,
    [], {}, [1, 2], [[1, 2], [3]], "12", np.eye(MAX_DIM + 1).tolist(),
]
BAD_KEYS = ["", "0-1-2", "a-b", " 0-1", "+1-0", "99999999999999999999-1", "0,1", "5-5"]
BAD_TORI = [{"d": 4, "m": 3}, {"d": 2, "m": 2}, {"d": 2, "m": 300}, {"d": 2.0, "m": 3}]


def slots(obj):
    """Every (container, key or index) of a nested JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield obj, key
        if isinstance(value, (dict, list)):
            yield from slots(value)


def mutate(data, obj):
    """Up to three mutations: a dropped key, a value of a wrong type or size,
    a ragged row, a bad edge key or a torus of d = 4 or m < 3."""
    for _ in range(data.draw(st.integers(1, 3))):
        if not isinstance(obj, (dict, list)) or not obj:
            break
        parent, key = data.draw(st.sampled_from(list(slots(obj))))
        kind = data.draw(st.sampled_from(["drop", "value", "ragged", "key", "torus"]))
        if kind == "drop":
            del parent[key]
        elif kind == "value":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(BAD_VALUES)))
        elif kind == "ragged" and isinstance(parent[key], list):
            parent[key].append(parent[key][0] if parent[key] else 1)
        elif kind == "key" and isinstance(parent, dict):
            parent[data.draw(st.sampled_from(BAD_KEYS))] = parent.pop(key)
        elif kind == "torus" and isinstance(obj, dict):
            obj["torus"] = copy.deepcopy(data.draw(st.sampled_from(BAD_TORI)))
    return obj


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mutated_input_exits_0_2_or_3_without_traceback(tmp_path_factory, data):
    command, base = data.draw(st.sampled_from(FUZZ_BASES))
    obj = mutate(data, json.loads(json.dumps(base)))
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(obj))
    argv = [command, str(path)]
    if command in ("tischler", "pipeline"):
        argv += ["--epsilon", "0.01"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


USAGE_CASES = json.loads((Path(__file__).parent / "cli_usage.json").read_text())


@pytest.mark.parametrize("case", USAGE_CASES, ids=lambda c: " ".join(c["argv"]) or "-")
def test_usage_help_and_parse_errors_are_unchanged(capsys, monkeypatch, case):
    """Exit code, stdout and stderr of argv that end in argparse, as stored
    in tests/cli_usage.json: help, usage and parse errors, with or without a
    command name first, at a width of 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case["argv"])
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_a_named_command_builds_only_its_subparser():
    for name in ("verify-brackets", "decompose", "check-foliation", "tischler", "pipeline"):
        (action,) = cli.build_parser(name)._subparsers._group_actions
        assert list(action.choices) == [name]
    (action,) = cli.build_parser(None)._subparsers._group_actions
    assert len(action.choices) == 5
