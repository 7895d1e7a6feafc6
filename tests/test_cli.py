import json
import math

import pytest

from slnfib.cli import main
from slnfib.complexes import coordinate_cochain, torus_complex
from slnfib.foliation import ga_suspension, linear_torus_spec, product_foliation
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

    @pytest.mark.parametrize("value", [1e308, 10 ** 400], ids=["inf-sum", "huge-int"])
    def test_non_finite_period_exit_2(self, capsys, tmp_path, value):
        w = scalar_cochain_to_json(coordinate_cochain(torus_complex(1, 3), 0))
        w = {key: value for key in w}
        path = write_json(
            tmp_path, "big.json", {"torus": {"d": 1, "m": 3}, "cochain": w}
        )
        code = main(["tischler", path, "--epsilon", "0.01"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("input error: period 0 ")

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


def overflowing_edge(spec):
    # finite and traceless, but exp overflows in the triangle holonomy
    spec["cochain"][sorted(spec["cochain"])[0]] = [[1000, 0], [0, -1000]]
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
