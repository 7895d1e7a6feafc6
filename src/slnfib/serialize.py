"""JSON schemas for matrices, complexes, cochains, and foliation specs.

Conventions: matrices are row-major nested arrays.  Every scalar, in a
matrix or a cochain, is a plain number or a "p/q" string and is read as its
nearest float (linalg.scalar_from_json); reports and dumps write floats.  A
complex is always a triangulated torus, given as {"torus": {"d": 2,
"m": 8}}.  Cochain values are keyed by oriented edges as "u-v"; an edge
keyed against its stored orientation gets the negated value.  All keys of a
cochain are parsed first and then resolved to edges in one array pass.
Developing samples, keyed by covering coordinates "x,y", are read in one
pass into an (N, d) int key array and one element array (of two keys on one
point the later wins); the spec refuses by key an SL(n) sample of det != 1.

Each loader turns a malformed or missing top-level field into one InputError
that names the field; the checks that run on the parsed objects raise their
own errors.
"""
from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from .errors import InputError, SlnfibError
from .linalg import FMatrix, matrix_from_json, scalar_from_json
from .complexes import LieCochain1, ScalarCochain1, SimplicialComplex, torus_complex
from .foliation import LieFoliationSpec
from .groups import parse_group


def _field(obj: Dict, name: str, parse: Callable):
    """parse(obj[name]), with a parse failure reported as one InputError."""
    if name not in obj:
        raise InputError(f"missing field {name!r}")
    try:
        return parse(obj[name])
    except SlnfibError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise InputError(f"bad field {name!r}: {type(e).__name__}: {e}") from e


def load_matrix(obj) -> FMatrix:
    """A float matrix given as a nested array or as {"matrix": [...]}."""
    if isinstance(obj, dict):
        return _field(obj, "matrix", matrix_from_json)
    return matrix_from_json(obj)


def load_complex(obj) -> SimplicialComplex:
    if not isinstance(obj, dict) or "torus" not in obj:
        raise InputError('a complex is given as {"torus": {"d": d, "m": m}}')
    t = obj["torus"]
    d, m = (t.get(k) if isinstance(t, dict) else None for k in ("d", "m"))
    if type(d) is not int or type(m) is not int:
        raise InputError(f"field 'torus' needs integers 'd' and 'm', got {t!r}")
    return torus_complex(d, m)


def _edge_key_parse(key: str):
    try:
        u, v = key.split("-")
        return int(u), int(v)
    except ValueError as e:
        raise InputError(f"bad edge key {key!r}, expected 'u-v'") from e


def scalar_cochain_from_json(complex: SimplicialComplex, obj: Dict) -> ScalarCochain1:
    """Edges missing from obj get the value 0."""
    values = {_edge_key_parse(k): scalar_from_json(v) for k, v in obj.items()}
    return ScalarCochain1(complex, complex.indexed(values, np.zeros(len(complex.edges))))


def _sorted_items(complex: SimplicialComplex, values):
    return sorted(zip(complex.edges, values), key=lambda item: item[0])


def scalar_cochain_to_json(w: ScalarCochain1) -> Dict:
    items = _sorted_items(w.complex, w.values.tolist())
    return {f"{u}-{v}": val for (u, v), val in items}


def lie_cochain_from_json(complex: SimplicialComplex, obj: Dict) -> LieCochain1:
    """Lie cochain with a matrix on every edge, all of one size; of two keys
    on one edge the later wins."""
    values = {_edge_key_parse(k): matrix_from_json(v).arr for k, v in obj.items()}
    dims = {a.shape[0] for a in values.values()}
    if len(dims) != 1:
        raise InputError(f"Lie cochain values must share one dimension, got {dims}")
    n, edges = dims.pop(), len(complex.edges)
    # an edge no key names stays NaN, which no value read from JSON can be
    out = complex.indexed(values, np.full((edges, n, n), np.nan))
    missing = int(np.isnan(out[:, 0, 0]).sum())
    if missing:
        raise InputError(f"Lie cochain missing values on {missing} of {edges} edges")
    return LieCochain1(complex, out)


def load_scalar_cochain(obj) -> ScalarCochain1:
    """The cochain of a {"torus": ..., "cochain": {"u-v": value}} file."""
    complex = load_complex(obj)
    return _field(obj, "cochain", lambda c: scalar_cochain_from_json(complex, c))


def load_foliation_spec(obj) -> LieFoliationSpec:
    """Spec bundle: complex, group, cochain(s), holonomy, developing."""
    complex = load_complex(obj)
    cochain = (
        _field(obj, "cochain", lambda c: lie_cochain_from_json(complex, c))
        if "cochain" in obj
        else None
    )
    n = cochain.n if cochain else None
    group = _field(obj, "group", lambda g: parse_group(g, n))
    holonomy = _field(obj, "holonomy", group.stack_from_json)
    samples = _field(
        obj,
        "developing",
        lambda s: {tuple(map(int, k.split(","))): v for k, v in s.items()},
    )
    d = complex.covering.d
    for z in samples:
        if len(z) != d:
            raise InputError(f"developing key {z} is not {d} integer coordinates")
        if max(map(abs, z)) >= 2**63:
            raise InputError(f"developing key {z} is beyond the int64 range")
    window = np.array(list(samples), dtype=np.int64).reshape(-1, d)
    developing = group.stack_from_json(samples.values())
    scalar_cochains = (
        _field(
            obj,
            "scalar_cochains",
            lambda cs: [scalar_cochain_from_json(complex, c) for c in cs],
        )
        if "scalar_cochains" in obj
        else None
    )
    return LieFoliationSpec(
        complex=complex,
        group=group,
        holonomy=holonomy,
        window=window,
        developing=developing,
        cochain=cochain,
        scalar_cochains=scalar_cochains,
    )


def dump_foliation_spec(spec: LieFoliationSpec) -> Dict:
    cov = spec.complex.covering
    keys, values = spec.window.tolist(), spec.developing.tolist()
    out = {
        "torus": {"d": cov.d, "m": cov.m},
        "group": spec.group.tag,
        "holonomy": spec.holonomy.tolist(),
        "developing": {
            ",".join(map(str, keys[i])): values[i]
            for i in sorted(range(len(keys)), key=keys.__getitem__)
        },
    }
    if spec.is_abelian():
        out["scalar_cochains"] = [
            scalar_cochain_to_json(w) for w in spec.scalar_cochains
        ]
    else:
        out["cochain"] = {
            f"{u}-{v}": val
            for (u, v), val in _sorted_items(spec.complex, spec.cochain.values.tolist())
        }
    return out
