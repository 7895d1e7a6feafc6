"""Stored reports of `tischler`, `pipeline` and `verify-brackets`, compared
byte for byte.

Each `tischler` and `pipeline` input is written here from its closed form,
with no slnfib code: the linear form sum_i c_i dx_i takes the value
sum_i c_i * e_i / m on the edge (z, z + e) of the standard triangulation of
T^d (e a nonzero 0/1 vector), summed in axis order.  Each command then runs
with --golden tests/golden, which exits 3 on any byte of difference from the
stored report.
"""
import itertools
import json
import math
from pathlib import Path

import pytest

from slnfib.cli import main

GOLDEN = Path(__file__).parent / "golden"
SQRT2 = math.sqrt(2)


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


# (stem, d, m, coefficients) of each stored `tischler` report
TISCHLER = [
    ("t2_m16", 2, 16, (1.0, SQRT2)),
    ("t2_m64", 2, 64, (1.0, SQRT2)),
    # fiber crossings land halfway between 9th-digit values (3 components)
    ("repro_m5", 2, 5, (0.9886863694964385, 1.6376747351482408)),
    ("t1_m4", 1, 4, (1.0,)),
    ("t3_m4", 3, 4, (1.0, 0.5, SQRT2)),
]


@pytest.mark.parametrize(
    "stem, d, m, coeffs", TISCHLER, ids=[case[0] for case in TISCHLER]
)
def test_tischler_golden(capsys, tmp_path, stem, d, m, coeffs):
    path = tmp_path / f"{stem}.json"
    path.write_text(
        json.dumps({"torus": {"d": d, "m": m}, "cochain": linear_form(d, m, coeffs)})
    )
    code = main(["tischler", str(path), "--epsilon", "0.01", "--golden", str(GOLDEN)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"]


def test_pipeline_golden(capsys, tmp_path):
    path = tmp_path / "linear_m8.json"
    path.write_text(json.dumps(linear_spec(8, [[1, SQRT2], [0.3, 1]])))
    code = main(["pipeline", str(path), "--epsilon", "0.01", "--golden", str(GOLDEN)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"]


def test_brackets_golden(capsys):
    code = main(["verify-brackets", "--n", "5", "--golden", str(GOLDEN)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"]


def test_ci_golden_holds_the_acceptance_numbers():
    # the report that CI compares `tischler` on dx + sqrt(2) dy, m = 128 with
    rep = json.loads((GOLDEN / "tischler-t2_m128.json").read_text())
    assert rep["ok"] and rep["pullback_periods"] == [12, 17]
    assert rep["fiber_components"] == [1] * 10
