"""JSON schemas for matrices, complexes, cochains, and foliation specs.

Conventions: matrices are row-major nested arrays; exact rationals are
"p/q" strings, floats plain numbers.  Cochain values are keyed by oriented
edges as "u-v".  Developing-map samples are keyed by covering coordinates
"x,y".  Torus complexes may be given as {"torus": {"d": 2, "m": 8}} instead
of explicit vertex/edge/triangle lists.
"""
from __future__ import annotations

from typing import Dict

from .errors import InputError
from .linalg import (
    matrix_from_json,
    matrix_to_json,
    scalar_from_json,
    scalar_to_json,
)
from .complexes import LieCochain1, ScalarCochain1, SimplicialComplex, torus_complex
from .foliation import LieFoliationSpec
from .groups import parse_group


def load_complex(obj) -> SimplicialComplex:
    if "torus" in obj:
        t = obj["torus"]
        return torus_complex(int(t["d"]), int(t["m"]))
    try:
        return SimplicialComplex(
            int(obj["vertices"]),
            [tuple(e) for e in obj["edges"]],
            [tuple(t) for t in obj.get("triangles", [])],
            [tuple(t) for t in obj.get("tetrahedra", [])],
        )
    except KeyError as e:
        raise InputError(f"complex description missing field {e}") from e


def _edge_key_parse(key: str):
    try:
        u, v = key.split("-")
        return int(u), int(v)
    except ValueError as e:
        raise InputError(f"bad edge key {key!r}, expected 'u-v'") from e


def scalar_cochain_from_json(complex: SimplicialComplex, obj: Dict) -> ScalarCochain1:
    return ScalarCochain1(
        complex, {_edge_key_parse(k): scalar_from_json(v) for k, v in obj.items()}
    )


def scalar_cochain_to_json(w: ScalarCochain1) -> Dict:
    return {f"{u}-{v}": scalar_to_json(val) for (u, v), val in sorted(w.values.items())}


def lie_cochain_from_json(complex: SimplicialComplex, obj: Dict) -> LieCochain1:
    """Lie cochain with FMatrix values; "p/q" entries are converted to floats."""
    return LieCochain1(
        complex,
        {_edge_key_parse(k): matrix_from_json(v).to_float() for k, v in obj.items()},
    )


def load_foliation_spec(obj) -> LieFoliationSpec:
    """Spec bundle: complex, group, cochain(s), holonomy, developing."""
    try:
        complex = load_complex(obj)
        cochain = (
            lie_cochain_from_json(complex, obj["cochain"]) if "cochain" in obj else None
        )
        group = parse_group(obj["group"], cochain.n if cochain else None)
        holonomy = [group.from_json(h) for h in obj["holonomy"]]
        developing = {
            tuple(int(c) for c in key.split(",")): group.from_json(val)
            for key, val in obj["developing"].items()
        }
        scalar_cochains = (
            [scalar_cochain_from_json(complex, c) for c in obj["scalar_cochains"]]
            if "scalar_cochains" in obj
            else None
        )
        return LieFoliationSpec(
            complex=complex,
            group=group,
            holonomy=holonomy,
            developing=developing,
            cochain=cochain,
            scalar_cochains=scalar_cochains,
        )
    except KeyError as e:
        raise InputError(f"foliation spec missing field {e}") from e


def dump_foliation_spec(spec: LieFoliationSpec) -> Dict:
    cov = spec.complex.covering
    if cov is None:
        raise InputError("only torus-backed specs are serializable")
    group = spec.group
    out = {
        "torus": {"d": cov.d, "m": cov.m},
        "group": group.tag,
        "holonomy": [group.to_json(h) for h in spec.holonomy],
        "developing": {
            ",".join(str(c) for c in z): group.to_json(g)
            for z, g in sorted(spec.developing.items())
        },
    }
    if spec.is_abelian():
        out["scalar_cochains"] = [
            scalar_cochain_to_json(w) for w in spec.scalar_cochains
        ]
    else:
        out["cochain"] = {
            f"{u}-{v}": matrix_to_json(val)
            for (u, v), val in sorted(spec.cochain.values.items())
        }
    return out
