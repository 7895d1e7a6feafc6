"""Command-line interface.

Subcommands: verify-brackets, decompose, check-foliation, tischler, pipeline.
Every command prints a JSON report to stdout.  Exit codes: 0 pass, 2 input
error, 3 check failed.  --golden DIR compares the report byte-for-byte with
the stored file named <command>-<input-stem>.json (or <command>-n<k>.json for
verify-brackets); --write-golden DIR stores it instead.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CheckFailed, InputError, SlnfibError
from .algebra import (
    OffDiag,
    build_structure_table,
    expected_offdiag_bracket,
    structure_table_json,
)
from .groups import factor_split, iwasawa_sln
from .linalg import matrix_from_json, matrix_to_json
from .complexes import homology_generators
from .foliation import check_equivariance, check_mc
from .tischler import RationalizeConfig, pipeline_sln, tischler_fibration
from . import serialize

EXIT_PASS = 0
EXIT_INPUT = 2
EXIT_CHECK = 3


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from e


def _emit(report: dict, args, golden_stem: str) -> int:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.write_golden:
        path = Path(args.write_golden) / f"{golden_stem}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    if args.golden:
        path = Path(args.golden) / f"{golden_stem}.json"
        if not path.exists():
            raise InputError(f"golden file {path} does not exist")
        if path.read_text() != text:
            sys.stderr.write(f"golden mismatch against {path}\n")
            return EXIT_CHECK
    return EXIT_PASS


def cmd_verify_brackets(args) -> int:
    n = args.n
    table = build_structure_table(n)
    violations = []
    checked = 0
    for (a, b), val in table.items():
        # antisymmetry against the mirrored entry
        if (val + table.get(b, a)).coeffs:
            violations.append(f"antisymmetry {a} {b}")
        if isinstance(a, OffDiag) and isinstance(b, OffDiag):
            checked += 1
            if val != expected_offdiag_bracket(a, b, n):
                violations.append(f"identity [{a},{b}]")
    report = {
        "n": n,
        "offdiag_pairs_checked": checked,
        "violations": violations,
        "ok": not violations,
        "table": structure_table_json(table),
    }
    code = _emit(report, args, f"brackets-n{n}")
    if code != EXIT_PASS:
        return code
    return EXIT_PASS if not violations else EXIT_CHECK


def cmd_decompose(args) -> int:
    obj = _load_json(args.matrix)
    m = matrix_from_json(obj["matrix"] if "matrix" in obj else obj).to_float()
    factors = iwasawa_sln(m)
    split = factor_split(m.n)
    report = {
        "n": m.n,
        "k": matrix_to_json(factors.k),
        "chart": list(factors.chart),
        "split": {
            "g1": [factors.chart[i] for i in split.g1_coords],
            "g2": [factors.chart[i] for i in split.g2_coords],
        },
    }
    return _emit(report, args, f"decompose-{Path(args.matrix).stem}")


def cmd_check_foliation(args) -> int:
    spec = serialize.load_foliation_spec(_load_json(args.spec))
    mc = check_mc(spec)
    eq = check_equivariance(spec)
    consistency = spec.validate_consistency()
    ok = mc.passed() and eq.max_deviation < 1e-8 and consistency < 1e-8
    report = {
        "maurer_cartan": mc.to_dict(),
        "equivariance": eq.to_dict(),
        "cochain_consistency": consistency,
        "ok": ok,
    }
    code = _emit(report, args, f"check-{Path(args.spec).stem}")
    if code != EXIT_PASS:
        return code
    return EXIT_PASS if ok else EXIT_CHECK


def cmd_tischler(args) -> int:
    obj = _load_json(args.cochain)
    complex = serialize.load_complex(obj)
    if "cochain" not in obj:
        raise InputError("input file needs a 'cochain' field")
    w = serialize.scalar_cochain_from_json(complex, obj["cochain"])
    cfg = RationalizeConfig(args.epsilon, args.max_denominator)
    cycles = homology_generators(complex)
    cm, rz, sub, censuses = tischler_fibration(w, cfg, cycles)
    counts = [c.component_count for c in censuses]
    ok = sub.passed() and len(set(counts)) == 1
    report = {
        "periods": [str(r) for r in rz.periods],
        "q": rz.q,
        "sup_change": rz.sup_change,
        "pullback_periods": cm.periods,
        "submersion": sub.to_dict(),
        "fiber_components": counts,
        "ok": ok,
    }
    code = _emit(report, args, f"tischler-{Path(args.cochain).stem}")
    if code != EXIT_PASS:
        return code
    return EXIT_PASS if ok else EXIT_CHECK


def cmd_pipeline(args) -> int:
    spec = serialize.load_foliation_spec(_load_json(args.spec))
    cfg = RationalizeConfig(args.epsilon, args.max_denominator)
    report = pipeline_sln(spec, cfg)
    code = _emit(report.to_dict(), args, f"pipeline-{Path(args.spec).stem}")
    if code != EXIT_PASS:
        return code
    return EXIT_PASS if report.ok else EXIT_CHECK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slnfib",
        description="SL(n,R) foliation toolkit: brackets, decompositions, "
        "foliation checks, circle fibrations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--golden", help="directory of golden reports to compare")
        p.add_argument("--write-golden", help="directory to store golden reports")

    p = sub.add_parser("verify-brackets", help="check the bracket identities")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_verify_brackets)

    p = sub.add_parser("decompose", help="Iwasawa-decompose a matrix")
    p.add_argument("matrix", help="JSON matrix file")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check-foliation", help="run foliation structural checks")
    p.add_argument("spec", help="JSON foliation spec file")
    common(p)
    p.set_defaults(func=cmd_check_foliation)

    p = sub.add_parser("tischler", help="circle fibration from a closed cochain")
    p.add_argument("cochain", help="JSON complex + cochain file")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-denominator", type=int, default=10 ** 6)
    common(p)
    p.set_defaults(func=cmd_tischler)

    p = sub.add_parser("pipeline", help="full foliation-to-fibration pipeline")
    p.add_argument("spec", help="JSON foliation spec file")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-denominator", type=int, default=10 ** 6)
    common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_INPUT
    except CheckFailed as e:
        sys.stderr.write(f"check failed: {e}\n")
        return EXIT_CHECK
    except SlnfibError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
