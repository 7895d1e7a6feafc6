import json
import math

import pytest

from slnfib.cli import main
from slnfib.complexes import coordinate_cochain, torus_complex
from slnfib.foliation import ga_suspension, linear_torus_spec
from slnfib.groups import GAElement
from slnfib.serialize import dump_foliation_spec, scalar_cochain_to_json


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


def boundary_spec(base, product_spec):
    if base == "sl2":
        return dump_foliation_spec(product_spec)
    if base == "ga":
        return dump_foliation_spec(ga_suspension(4, GAElement(2.0, 0.5)))
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

    def test_missing_cochain_field_exit_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "nocochain.json", {"torus": {"d": 2, "m": 8}})
        code, _ = run(capsys, ["tischler", path, "--epsilon", "0.01"])
        assert code == 2


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

    def test_brackets_golden(self, capsys, tmp_path):
        gold = tmp_path / "golden"
        code, _ = run(
            capsys, ["verify-brackets", "--n", "2", "--write-golden", str(gold)]
        )
        assert code == 0
        assert (gold / "brackets-n2.json").exists()
        code, _ = run(capsys, ["verify-brackets", "--n", "2", "--golden", str(gold)])
        assert code == 0
