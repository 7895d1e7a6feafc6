"""JSON schemas for matrices, complexes, cochains, and foliation specs.

Conventions: matrices are row-major nested arrays.  Every scalar, in a
matrix or a cochain, is a plain number or a "p/q" string and is read as its
nearest float by the one JSON scalar reader, linalg.scalars_from_json, which
takes all values of a cochain or a stack at once; reports and dumps write
floats.  A complex is always a triangulated torus, given as {"torus":
{"d": 2, "m": 8}}.  Cochain values are keyed by oriented edges as "u-v"; an
edge keyed against its stored orientation gets the negated value, and of two
keys on one edge the later wins.  All keys of a cochain are parsed in one
pass and resolved to edges by one orient call; a refused cochain names its
first bad item, key before value.
Developing samples, keyed by covering coordinates "x,y", are read in one
pass into an (N, d) int key array and one element array (of two keys on one
point the later wins); the spec refuses by key an SL(n) sample of det != 1.
A spec has one Lie cochain, read as a plain edge array: matrix groups give
it as "cochain", (E, n, n), whose values must all have one size, an
overwritten one too, and R^k as "scalar_cochains", k scalar cochains read
and written as the k columns of an (E, k) array.

Each loader turns a malformed or missing top-level field into one InputError
that names the field; the checks that run on the parsed objects raise their
own errors.
"""
from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from .errors import InputError, SlnfibError
from .linalg import (
    FMatrix, matrices_from_json, matrix_from_json, scalar_from_json, scalars_from_json
)
from .complexes import ScalarCochain1, SimplicialComplex, torus_complex
from .foliation import LieFoliationSpec, _row_keys
from .groups import Rk, parse_group


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


def _plain(text: str, sep: str, width: int, count: int) -> bool:
    """Whether text, count keys joined by ";", is plain: every key is width
    integers of 1 to 18 ASCII digits joined by sep, each with an optional "-"
    sign when sep is ",".  One check on the bytes: the separators (sep and
    ";") come in the order sep, ..., ";" of count keys, so no key holds a
    ";", and the bytes between two of them are digits after an optional
    "-".  Text that is not ASCII (a lone surrogate would not even encode) is
    not plain."""
    if not text.isascii():
        return False
    b = np.frombuffer(text.encode(), np.uint8)
    cuts = np.flatnonzero((b == ord(sep)) | (b == ord(";")))
    order = np.full(width * count - 1, ord(sep), np.uint8)
    order[width - 1 :: width] = ord(";")
    if not np.array_equal(b[cuts], order):
        return False
    starts, ends = np.append(0, cuts + 1), np.append(cuts, len(b))
    if not np.all(starts < ends):  # an empty integer
        return False
    # a "-" first in an integer is a sign; with sep "-" every "-" is a cut
    digits = ends - starts - (b[starts] == ord("-"))
    return (
        1 <= digits.min()
        and digits.max() <= 18
        and np.count_nonzero((b >= ord("0")) & (b <= ord("9"))) == digits.sum()
    )


def _int_keys(keys, sep: str, width: int, read: Callable):
    """The width integers joined by sep of every key, as an (N, width) array:
    one numpy parse into int64 if the keys are plain (_plain), else
    read(keys)."""
    text = ";".join(keys)
    if keys and _plain(text, sep, width, len(keys)):
        rows = np.fromstring(text.replace(sep, ";"), np.int64, sep=";")
        return rows.reshape(-1, width)
    return np.array(read(keys), dtype=object).reshape(-1, width)


def _edge_keys(keys):
    """The u and the v of every "u-v" key, as _edge_key_parse reads it."""
    return _int_keys(keys, "-", 2, lambda ks: [_edge_key_parse(k) for k in ks]).T


def _developing_samples(s: Dict, d: int):
    """(N, d) int64 keys and N values of the samples s; of two keys on one
    point the later wins, in the place of the first.  Keys that are not plain
    are read by split and int: int refusals first, then width and range."""
    def read(keys):
        rows = [tuple(map(int, k.split(","))) for k in keys]
        for z in rows:
            if len(z) != d:
                raise InputError(f"developing key {z} is not {d} integer coordinates")
            if max(map(abs, z)) >= 2**63:
                raise InputError(f"developing key {z} is beyond the int64 range")
        return rows

    values = [v for _, v in s.items()]  # first, for the error of an s that is no dict
    keys = _int_keys(list(s), ",", d, read).astype(np.int64)
    _, first, point = np.unique(_row_keys(keys), return_index=True, return_inverse=True)
    if len(first) == len(keys):  # no point is keyed twice
        return keys, values
    last = np.zeros_like(first)
    np.maximum.at(last, point, np.arange(len(keys)))
    order = np.argsort(first)
    return keys[first[order]], [values[i] for i in last[order].tolist()]


def _cochain_items(obj: Dict, read_values: Callable, read_one: Callable):
    """The (u, v) of the keys of a cochain and read_values(its values).  A
    refusal raises the error of the first bad item in order, its key before
    its value, as _edge_key_parse and read_one refuse it."""
    items = obj.items()  # first, for the error of an obj that is no dict
    try:
        return _edge_keys(list(obj)), read_values(list(obj.values()))
    except InputError:
        for k, v in items:
            _edge_key_parse(k)
            read_one(v)
        raise


def scalar_cochain_from_json(complex: SimplicialComplex, obj: Dict) -> ScalarCochain1:
    """Edges missing from obj get the value 0; of two keys on one edge the
    later wins."""
    (u, v), values = _cochain_items(
        obj, lambda vs: scalars_from_json(vs, 1), scalar_from_json
    )
    zeros = np.zeros(len(complex.edges))
    return ScalarCochain1(complex, complex.indexed(u, v, values, zeros))


def _sorted_keys(rows: np.ndarray, sep: str):
    """The order that sorts the rows of an (N, k) int array as lists, stably,
    and the key of each row in it: its integers joined by sep."""
    order = np.lexsort(rows.T[::-1])
    key = sep.join(["{}"] * rows.shape[1]).format
    return order, list(map(key, *rows[order].T.tolist()))


def scalar_cochain_to_json(w: ScalarCochain1) -> Dict:
    order, keys = _sorted_keys(w.complex.edges, "-")
    return dict(zip(keys, w.values[order].tolist()))


def lie_cochain_from_json(complex: SimplicialComplex, obj: Dict) -> np.ndarray:
    """The (E, n, n) edge array of a Lie cochain with a matrix on every edge;
    every value given, an overwritten one too, must have one size, and of
    two keys on one edge the later wins."""
    (u, v), stack = _cochain_items(obj, matrices_from_json, matrix_from_json)
    if isinstance(stack, list):  # no values, or values of different sizes
        dims = {len(a) for a in stack}
        raise InputError(f"Lie cochain values must share one dimension, got {dims}")
    edges, n = len(complex.edges), stack.shape[1]
    # an edge no key names stays NaN, which no value read from JSON can be
    out = complex.indexed(u, v, stack, np.full((edges, n, n), np.nan))
    missing = int(np.isnan(out[:, 0, 0]).sum())
    if missing:
        raise InputError(f"Lie cochain missing values on {missing} of {edges} edges")
    return out


def load_scalar_cochain(obj) -> ScalarCochain1:
    """The cochain of a {"torus": ..., "cochain": {"u-v": value}} file."""
    complex = load_complex(obj)
    return _field(obj, "cochain", lambda c: scalar_cochain_from_json(complex, c))


def _rk_cochain_from_json(complex: SimplicialComplex, objs) -> np.ndarray:
    """The (E, k) edge array of k scalar cochains, one column each."""
    columns = [scalar_cochain_from_json(complex, c).values for c in objs]
    return np.reshape(columns, (-1, len(complex.edges))).T


def load_foliation_spec(obj) -> LieFoliationSpec:
    """Spec bundle: complex, group, holonomy, developing, and one cochain:
    "cochain", a matrix on every edge, or for R^k "scalar_cochains", k
    scalar cochains read as the columns of one Lie cochain.  A spec that
    gives both fields gets no cochain, which the spec refuses."""
    complex = load_complex(obj)
    cochain = (
        _field(obj, "cochain", lambda c: lie_cochain_from_json(complex, c))
        if "cochain" in obj
        else None
    )
    n = None if cochain is None else cochain.shape[-1]
    group = _field(obj, "group", lambda g: parse_group(g, n))
    holonomy = _field(obj, "holonomy", group.stack_from_json)
    d = complex.covering.d
    window, samples = _field(obj, "developing", lambda s: _developing_samples(s, d))
    developing = group.stack_from_json(samples)
    if "scalar_cochains" in obj:
        columns = _field(
            obj, "scalar_cochains", lambda cs: _rk_cochain_from_json(complex, cs)
        )
        cochain = columns if cochain is None else None
    return LieFoliationSpec(
        complex=complex,
        group=group,
        holonomy=holonomy,
        window=window,
        developing=developing,
        cochain=cochain,
    )


def dump_foliation_spec(spec: LieFoliationSpec) -> Dict:
    """The JSON form of a spec, which load_foliation_spec reads back: the
    developing samples in the order of their points and the cochain values in
    the order of their edges (u, v), each compared as a list of ints; an R^k
    cochain as "scalar_cochains", one scalar cochain per column."""
    cov = spec.complex.covering
    order, keys = _sorted_keys(spec.window, ",")
    out = {
        "torus": {"d": cov.d, "m": cov.m},
        "group": spec.group.tag,
        "holonomy": spec.holonomy.tolist(),
        "developing": dict(zip(keys, spec.developing[order].tolist())),
    }
    order, keys = _sorted_keys(spec.complex.edges, "-")
    values = spec.cochain[order]
    if isinstance(spec.group, Rk):
        out["scalar_cochains"] = [dict(zip(keys, x)) for x in values.T.tolist()]
    else:
        out["cochain"] = dict(zip(keys, values.tolist()))
    return out
