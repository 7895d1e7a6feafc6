"""Stored reports of `tischler`, `pipeline`, `verify-brackets`, `decompose`
and `check-foliation`, compared byte for byte.

Each `tischler` input and each R^k `check-foliation` and `pipeline` input
is written here from its closed form, with no slnfib code: the linear form
sum_i c_i dx_i takes the value sum_i c_i * e_i / m on the edge (z, z + e)
of the standard triangulation of T^d (e a nonzero 0/1 vector), summed in
axis order.  Each `decompose` input is a matrix of plain numbers written
below.  The SL(2) product specs are built and dumped by the library
constructors at test time.  Each command then runs with --golden
tests/golden, which exits 3 on any byte of difference from the stored
report.
"""
import itertools
import json
import math
from pathlib import Path

import pytest

from slnfib.cli import main
from slnfib.foliation import ga_suspension, product_foliation
from slnfib.groups import GAElement
from slnfib.serialize import dump_foliation_spec

GOLDEN = Path(__file__).parent / "golden"
SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)


def base_index(z, m):
    return sum((c % m) * m ** i for i, c in enumerate(z))


def grid(d, m):
    return [tuple(reversed(c)) for c in itertools.product(range(m), repeat=d)]


def linear_form(d, m, coeffs):
    """{"u-v": value} of sum_i coeffs[i] dx_i on T^d, m subdivisions."""
    steps = [e for e in itertools.product((0, 1), repeat=d) if any(e)]
    out = {}
    for z in grid(d, m):
        for e in steps:
            value = coeffs[0] * (e[0] / m)
            for c, e_i in zip(coeffs[1:], e[1:]):
                value = value + c * (e_i / m)
            zv = tuple(a + b for a, b in zip(z, e))
            out[f"{base_index(z, m)}-{base_index(zv, m)}"] = value
    return out


def linear_spec(m, rows):
    """The R^k spec of D(z) = A z / m on T^d for the k x d matrix A = rows."""
    d = len(rows[0])
    return {
        "torus": {"d": d, "m": m},
        "group": f"R{len(rows)}",
        "holonomy": [[float(row[ax]) for row in rows] for ax in range(d)],
        "developing": {
            ",".join(map(str, z)): [
                sum(row[ax] * z[ax] for ax in range(d)) / m for row in rows
            ]
            for z in grid(d, 3 * m)
        },
        "scalar_cochains": [linear_form(d, m, row) for row in rows],
    }


# (stem, d, m, coefficients, epsilon) of each stored `tischler` report
TISCHLER = [
    ("t2_m16", 2, 16, (1.0, SQRT2), 0.01),
    ("t2_m64", 2, 64, (1.0, SQRT2), 0.01),
    ("t2_m128", 2, 128, (1.0, SQRT2), 0.01),
    # m = 256 is the largest T^2 under MAX_VERTICES that the loader accepts
    ("t2_m256", 2, 256, (1.0, SQRT2), 0.01),
    # its convergents share q = 88, whose fiber crossings land halfway
    # between 9th-digit values (test_tischler builds that map by hand); the
    # least common denominator within budget is 47
    ("repro_m5", 2, 5, (0.9886863694964385, 1.6376747351482408), 0.01),
    ("t1_m4", 1, 4, (1.0,), 0.01),
    ("t3_m4", 3, 4, (1.0, 0.5, SQRT2), 0.01),
    # q = 11 where the convergents' lcm is 88: pullback periods [15, 21],
    # 2,304 fiber nodes per level on 3,072 edges, 3 components
    ("t2_m32_dense", 2, 32, (1.37, 1.91), 0.01),
    # crossing-bound on T^3: q = 7 where the convergents' lcm is 20,
    # pullback periods [7, 10, 12], fiber nodes of degree up to 6
    ("t3_m16_dense", 3, 16, (1.0, SQRT2, SQRT3), 0.05),
]


@pytest.mark.parametrize(
    "stem, d, m, coeffs, epsilon", TISCHLER, ids=[case[0] for case in TISCHLER]
)
def test_tischler_golden(capsys, tmp_path, stem, d, m, coeffs, epsilon):
    path = tmp_path / f"{stem}.json"
    path.write_text(
        json.dumps({"torus": {"d": d, "m": m}, "cochain": linear_form(d, m, coeffs)})
    )
    code = main(
        ["tischler", str(path), "--epsilon", str(epsilon), "--golden", str(GOLDEN)]
    )
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"]


# (stem, m, coefficient rows) of each stored R^k `check-foliation` report;
# linear_m8 is also the `pipeline` input
LINEAR = [
    ("linear_m8", 8, [[1, SQRT2], [0.3, 1]]),
    ("r1_t2_m8", 8, [[1, SQRT2]]),
    ("r3_t3_m4", 4, [[1, 0.5, SQRT2], [0.3, 1, 0.0], [0, 0.2, 1]]),
]


@pytest.mark.parametrize("stem, m, rows", LINEAR, ids=[case[0] for case in LINEAR])
def test_check_foliation_rk_golden(capsys, tmp_path, stem, m, rows):
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(linear_spec(m, rows)))
    code = main(["check-foliation", str(path), "--golden", str(GOLDEN)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"]


def test_pipeline_golden(capsys, tmp_path):
    path = tmp_path / "linear_m8.json"
    path.write_text(json.dumps(linear_spec(*LINEAR[0][1:])))
    code = main(["pipeline", str(path), "--epsilon", "0.01", "--golden", str(GOLDEN)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"]


# (stem, matrix) of each stored `decompose` report
DECOMPOSE = [
    ("sl2", [[1.5, 0.5], [1.0, 1.0]]),
    ("sl3_upper", [[2.0, 1.0, -3.0], [0.0, 0.5, 4.0], [0.0, 0.0, 1.0]]),
    # L U for unit triangular integer L and U: det 1 exactly
    (
        "sl5",
        [
            [1, 1, 0, -1, 2],
            [2, 3, 2, -2, 5],
            [-1, 2, 7, 2, 0],
            [0, 1, 0, -1, 6],
            [1, 1, 2, 2, 4],
        ],
    ),
]


@pytest.mark.parametrize("stem, matrix", DECOMPOSE, ids=[case[0] for case in DECOMPOSE])
def test_decompose_golden(capsys, tmp_path, stem, matrix):
    path = tmp_path / f"{stem}.json"
    path.write_text(json.dumps(matrix))
    code = main(["decompose", str(path), "--golden", str(GOLDEN)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == len(matrix)


@pytest.fixture(scope="module")
def sl2_products(tmp_path_factory):
    """The SL(2) product specs of GA holonomy (1.5, 0.3) at m = 8 and at
    m = 32 (96^2 developing samples, 3,072 edge logarithms), as files named
    by their golden stems."""
    out = tmp_path_factory.mktemp("specs")
    for m, stem in ((8, "sl2_product_m8"), (32, "sl2_m32")):
        spec = product_foliation(ga_suspension(m, GAElement(1.5, 0.3)))
        (out / f"{stem}.json").write_text(json.dumps(dump_foliation_spec(spec)))
    return [str(out / "sl2_product_m8.json"), str(out / "sl2_m32.json")]


@pytest.mark.parametrize(
    "argv",
    [["check-foliation"], ["pipeline", "--epsilon", "0.01"]],
    ids=["check-foliation", "pipeline"],
)
def test_sl2_product_golden(capsys, sl2_products, argv):
    for path in sl2_products:
        code = main(argv[:1] + [path] + argv[1:] + ["--golden", str(GOLDEN)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert json.loads(out)["ok"]


def test_brackets_golden(capsys):
    code = main(["verify-brackets", "--n", "5", "--golden", str(GOLDEN)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"]


def test_ci_golden_holds_the_acceptance_numbers():
    # the report of `tischler` on dx + sqrt(2) dy, m = 128 (TISCHLER above)
    rep = json.loads((GOLDEN / "tischler-t2_m128.json").read_text())
    assert rep["ok"] and rep["pullback_periods"] == [12, 17]
    assert rep["fiber_components"] == [1] * 10
