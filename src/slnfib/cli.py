"""Command-line interface.

Subcommands: verify-brackets, decompose, check-foliation, tischler, pipeline.
Every command prints a strict JSON report to stdout, from one writer: the bytes
of json.dumps(report, indent=2, sort_keys=True) and a newline, with a
non-finite float as the string "Infinity", "-Infinity" or "NaN".  The
verify-brackets report holds the structure table itself, and the writer
writes it from the int64 array by algebra.structure_table_json.
Exit codes: 0 pass, 2 input error, 3 check failed.  A command writes no
file: to keep a report, redirect stdout; to compare two, cmp them.
"""
from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import CheckFailed, InputError, SlnfibError
from .algebra import (
    StructureTable,
    basis_indices,
    build_structure_table,
    dims,
    expected_offdiag_table,
    structure_table_json,
)
from .groups import iwasawa_sln
from .foliation import check_equivariance, check_mc
from .tischler import RationalizeConfig, fibration_ok, pipeline_sln, tischler_fibration
from . import serialize

EXIT_PASS = 0
EXIT_INPUT = 2
EXIT_CHECK = 3
_NON_FINITE = {"inf": '"Infinity"', "-inf": '"-Infinity"', "nan": '"NaN"'}


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    # ValueError covers bad JSON, bad UTF-8 and ints over the digit limit
    except (OSError, ValueError) as e:
        raise InputError(f"cannot read {path}: {e}") from e


def _json_text(x, indent: str = "") -> str:
    """x as json.dumps(x, indent=2, sort_keys=True) writes it, but a non-finite
    float as a JSON string, and a StructureTable as the dict of its export,
    written from the int64 array by structure_table_json.  Keys must be str;
    np.int64 or a set: TypeError."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        text = float.__repr__(x)
        return _NON_FINITE.get(text, text)
    if isinstance(x, StructureTable):
        return structure_table_json(x, indent)
    inner, ends = indent + "  ", "{}" if isinstance(x, dict) else "[]"
    sep = ",\n" + inner
    if isinstance(x, dict):
        body = sep.join([encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                         for k, v in sorted(x.items())])
    elif isinstance(x, (list, tuple)):
        try:  # a row of strings is one C-level join, with no call per leaf
            body = sep.join(map(encode_basestring_ascii, x))
        except TypeError:
            body = sep.join([_json_text(v, inner) for v in x])
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    return ends[0] + ("\n" + inner + body + "\n" + indent if x else "") + ends[1]


def _emit(report: dict) -> int:
    """Print _json_text(report) and a newline, the bytes of json.dumps(report,
    indent=2, sort_keys=True) + "\n" with non-finite floats as strings; the
    exit code of report["ok"] (pass when the report has no "ok")."""
    sys.stdout.write(_json_text(report) + "\n")
    return EXIT_PASS if report.get("ok", True) else EXIT_CHECK


def cmd_verify_brackets(args) -> int:
    n = args.n
    table = build_structure_table(n)
    c, m = table.coeffs, dims(n)[1]
    # [a, b] + [b, a] over every pair; the off-diagonal block against the
    # closed form of the four identities
    asym = (c + c.swapaxes(0, 1)).any(-1)
    wrong = np.zeros_like(asym)
    wrong[:m, :m] = (c[:m, :m] != expected_offdiag_table(n)).any(-1)
    violations = []
    if asym.any() or wrong.any():
        idxs = basis_indices(n)
        for p, q in zip(*np.nonzero(asym | wrong)):
            a, b = idxs[p], idxs[q]
            if asym[p, q]:
                violations.append(f"antisymmetry {a} {b}")
            if wrong[p, q]:
                violations.append(f"identity [{a},{b}]")
    report = {
        "n": n,
        "offdiag_pairs_checked": m * m,
        "violations": violations,
        "ok": not violations,
        "table": table,
    }
    return _emit(report)


def cmd_decompose(args) -> int:
    m = serialize.load_matrix(_load_json(args.matrix))
    k, chart = iwasawa_sln(m.arr)
    chart = chart.tolist()
    report = {
        "n": m.n,
        "k": k.tolist(),
        "chart": chart,
        # the leading block and the R^2 factor, the last two coordinates
        "split": {"g1": chart[:-2], "g2": chart[-2:]},
    }
    return _emit(report)


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
    return _emit(report)


def cmd_tischler(args) -> int:
    w = serialize.load_scalar_cochain(_load_json(args.cochain))
    cfg = RationalizeConfig(args.epsilon, args.max_denominator)
    cm, rz, sub, censuses = tischler_fibration(w, cfg)
    report = {
        "periods": [str(r) for r in rz.periods],
        "q": rz.q,
        "sup_change": rz.sup_change,
        "pullback_periods": cm.periods,
        "submersion": sub.to_dict(),
        "fiber_components": [c.component_count for c in censuses],
        "ok": fibration_ok(sub, censuses),
    }
    return _emit(report)


def cmd_pipeline(args) -> int:
    spec = serialize.load_foliation_spec(_load_json(args.spec))
    cfg = RationalizeConfig(args.epsilon, args.max_denominator)
    report = pipeline_sln(spec, cfg)
    return _emit(report.to_dict())


def _arg(*flags, **kwargs):
    return flags, kwargs


_SPEC = _arg("spec", help="JSON foliation spec file")
_RATIONALIZE = (
    _arg("--epsilon", type=float, required=True),
    _arg("--max-denominator", type=int, default=10 ** 6),
)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command; or, when command names one, the parser of
    an argv that begins with it, which builds no other subparser.

    Both give the same usage, help and error text on such an argv: the
    usage line names every command either way, and no other text of the top
    parser can show on it."""
    # name: (help, handler, arguments), in the order of the usage line; the
    # handlers are read here, at call time, where a tracer may have wrapped them
    commands = {
        "verify-brackets": (
            "check the bracket identities",
            cmd_verify_brackets,
            (_arg("--n", type=int, required=True),),
        ),
        "decompose": (
            "Iwasawa-decompose a matrix",
            cmd_decompose,
            (_arg("matrix", help="JSON matrix file"),),
        ),
        "check-foliation": (
            "run foliation structural checks", cmd_check_foliation, (_SPEC,)
        ),
        "tischler": (
            "circle fibration from a closed cochain",
            cmd_tischler,
            (_arg("cochain", help="JSON complex + cochain file"), *_RATIONALIZE),
        ),
        "pipeline": (
            "full foliation-to-fibration pipeline", cmd_pipeline, (_SPEC, *_RATIONALIZE)
        ),
    }
    parser = argparse.ArgumentParser(
        prog="slnfib",
        description="SL(n,R) foliation toolkit: brackets, decompositions, "
        "foliation checks, circle fibrations",
    )
    names = [command] if command in commands else list(commands)
    # the metavar argparse derives from all the choices; given only here, as
    # it would also replace "command" in the missing-command error
    every = "{" + ",".join(commands) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name in names:
        summary, func, arguments = commands[name]
        p = sub.add_parser(name, help=summary)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
