"""Edge keys of JSON cochains and coordinate keys of developing samples: the
parse against str.split and int, and which of two keys on one edge wins; the
key order of a dumped spec against a Python sort."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slnfib.complexes import torus_complex
from slnfib.errors import InputError
from slnfib.foliation import ga_suspension, linear_torus_spec, product_foliation
from slnfib.groups import GAElement, Rk
from slnfib.serialize import (
    _developing_samples,
    _edge_keys,
    _int_keys,
    dump_foliation_spec,
    lie_cochain_from_json,
    scalar_cochain_from_json,
)


def split_and_int(key):
    """(u, v) as key.split("-") and int read the key, or None if they refuse it."""
    try:
        u, v = key.split("-")
        return int(u), int(v)
    except ValueError:
        return None


PLAIN_KEYS = st.tuples(st.integers(0, 10 ** 20), st.integers(0, 10 ** 20)).map(
    lambda uv: f"{uv[0]}-{uv[1]}"
)
# developing keys "x,y": small coordinates, so that two keys meet on a point,
# and large ones past the int64 range
COORDINATE_KEYS = st.lists(
    st.one_of(st.integers(-2, 2), st.integers(-(10 ** 20), 10 ** 20)),
    min_size=1,
    max_size=3,
).map(lambda z: ",".join(map(str, z)))
# signs, underscores, whitespace, commas, semicolons and non-ASCII digits,
# which int takes in some places and not in others
ODD_KEYS = st.text(alphabet="0123456789-+_, \n٣a;", max_size=7)


def split_and_int_samples(samples, d):
    """The window rows and values of developing samples as a dict of
    split-and-int keys reads them, or the message of its refusal."""
    try:
        read = {tuple(map(int, k.split(","))): v for k, v in samples.items()}
    except ValueError as e:
        return str(e)
    for z in read:
        if len(z) != d:
            return f"developing key {z} is not {d} integer coordinates"
        if max(map(abs, z)) >= 2**63:
            return f"developing key {z} is beyond the int64 range"
    return [list(z) for z in read], list(read.values())


def developing_outcome(samples, d):
    try:
        window, values = _developing_samples(samples, d)
    except (ValueError, InputError) as e:
        return str(e)
    assert window.dtype == np.int64 and window.shape == (len(values), d)
    return window.tolist(), values


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(PLAIN_KEYS, COORDINATE_KEYS, ODD_KEYS), max_size=5))
@example(["0-1", "2-3,4-5"])  # plain digits, but a comma inside one key
@example(["1-2", "3-99999999999999999999"])  # past 18 digits
@example(["1,2", "-1,2", "01,2", "3,4"])  # the later of two keys on (1, 2) wins
@example(["1,2,3", "x,1"])  # an int refusal before a key of the wrong width
@example(["1,2;3,4", "5,6"])  # plain digits, but a ";" inside one key
@example(["-1,2", "1,-2"])  # a sign first in an integer of a "," key
@example(["1,2", "-,1"])  # a sign with no digits
@example(["1,2", "1,-"])
@example(["--1,2", "3,4"])  # two signs
@example(["1-,2", "3,4"])  # a sign after the digits
@example(["999999999999999999-0", "0-123456789012345678"])  # 18 digits
@example(["0-1", "9999999999999999999-0"])  # 19 digits, past int64
@example(["007-0010", "00-0"])  # leading zeros
@example(["0-1", "\u0663-1"])  # a non-ASCII digit, which int reads
@example(["0-1", "\ud800-1"])  # a lone surrogate, which JSON can spell
@example(["0-1", "", "2-3"])  # an empty key among plain ones
@example(["0-1", "2-3;"])  # a trailing ";"
def test_edge_keys_read_as_split_and_int(keys):
    expect = [split_and_int(k) for k in keys]
    if None in expect:
        bad = keys[expect.index(None)]
        with pytest.raises(InputError) as e:
            _edge_keys(keys)
        assert str(e.value) == f"bad edge key {bad!r}, expected 'u-v'"
    else:
        u, v = _edge_keys(keys)
        assert [(int(a), int(b)) for a, b in zip(u, v)] == expect
    # the same keys as the developing keys of a d-torus
    samples = {k: [i] for i, k in enumerate(keys)}
    for d in (1, 2, 3):
        assert developing_outcome(samples, d) == split_and_int_samples(samples, d)


def refuse(keys):
    raise AssertionError(f"plain keys reached the per-key reader: {keys}")


@pytest.mark.parametrize(
    "keys, sep, width",
    [
        ([f"{u}-{v}" for u, v in torus_complex(2, 16).edges.tolist()], "-", 2),
        ([f"{u}-{v}" for u, v in torus_complex(3, 4).edges.tolist()], "-", 2),
        (["999999999999999999-0", "0-100000000000000000", "007-08"], "-", 2),
        (["-1,2", "3,-4", "-0,0", "-999999999999999999,5"], ",", 2),
        (["-1", "2"], ",", 1),
        (["-5,6,-7", "0,0,0"], ",", 3),
    ],
)
def test_plain_keys_never_reach_the_per_key_reader(keys, sep, width):
    rows = _int_keys(keys, sep, width, refuse)
    assert rows.dtype == np.int64
    assert rows.tolist() == [list(map(int, k.split(sep))) for k in keys]


@pytest.mark.parametrize("keys", [["0-1", "2-3"], ["+3-4", " 3-4", "3_0-4", "03-04"]])
def test_edge_keys_examples(keys):
    u, v = _edge_keys(keys)
    assert [(int(a), int(b)) for a, b in zip(u, v)] == [split_and_int(k) for k in keys]


def test_bad_key_after_good_keys_names_the_bad_key():
    k = torus_complex(2, 3)
    with pytest.raises(InputError, match=r"^bad edge key '0-1-2', expected 'u-v'$"):
        scalar_cochain_from_json(k, {"0-1": 1.0, "0-1-2": 2.0, "x": 3.0})


# spellings of one edge (u, v): (format, +1 if it names (u, v), -1 if (v, u))
SPELLINGS = [("{u}-{v}", 1), ("{v}-{u}", -1), (" {u}-{v}", 1), ("+{v}-{u}", -1)]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 26),
    st.permutations(range(len(SPELLINGS))).map(lambda p: p[:2]),
    st.floats(-4, 4),
    st.floats(-4, 4),
)
def test_later_key_on_one_edge_wins(edge, pick, a, b):
    k = torus_complex(2, 3)
    u, v = k.edges[edge].tolist()
    (first, _), (second, sign) = (SPELLINGS[i] for i in pick)
    first, second = first.format(u=u, v=v), second.format(u=u, v=v)
    other = k.edges[(edge + 1) % 27].tolist()
    filler = f"{other[0]}-{other[1]}"

    w = scalar_cochain_from_json(k, {first: a, filler: 0.5, second: b})
    expect = np.zeros(27)
    expect[(edge + 1) % 27] = 0.5
    expect[edge] = sign * b
    assert w.values.tolist() == expect.tolist()

    # a Lie cochain: every other edge keyed once, the two keys around them
    zero = [[0.0, 0.0], [0.0, 0.0]]
    rest = {f"{x}-{y}": zero for x, y in k.edges.tolist() if (x, y) != (u, v)}
    obj = {first: [[a, 1.0], [0.0, -a]], **rest, second: [[b, 2.0], [0.0, -b]]}
    got = lie_cochain_from_json(k, obj)[edge]
    assert got.tolist() == (sign * np.array([[b, 2.0], [0.0, -b]])).tolist()


@pytest.mark.parametrize("size", [2, 3])
def test_lie_cochain_values_share_one_size_overwritten_ones_too(size):
    # edge 0 is (0, 3), keyed by "0-3", then "3-0", then "0-03": the last
    # key wins only if every value given, the overwritten one too, is 2x2
    k = torus_complex(2, 3)
    assert k.edges[0].tolist() == [0, 3]
    zero = [[0.0, 0.0], [0.0, 0.0]]
    rest = {f"{x}-{y}": zero for x, y in k.edges[1:].tolist()}
    obj = {
        "0-3": np.eye(size).tolist(),
        "3-0": [[2.0, 0.0], [0.0, -2.0]],
        **rest,
        "0-03": [[3.0, 0.0], [0.0, -3.0]],
    }
    if size == 2:
        assert lie_cochain_from_json(k, obj)[0].tolist() == [[3.0, 0.0], [0.0, -3.0]]
    else:
        with pytest.raises(
            InputError, match=r"^Lie cochain values must share one dimension, got \{2, 3\}$"
        ):
            lie_cochain_from_json(k, obj)


def dump_by_sorted_keys(spec):
    """The JSON form of a spec, each mapping ordered by a Python sort of its
    integer-list keys: developing samples by window row, cochain values by
    edge (u, v)."""
    def by_key(rows, values, sep):
        rows = rows.tolist()
        return {
            sep.join(map(str, rows[i])): values[i]
            for i in sorted(range(len(rows)), key=rows.__getitem__)
        }

    cov, edges = spec.complex.covering, spec.complex.edges
    out = {
        "torus": {"d": cov.d, "m": cov.m},
        "group": spec.group.tag,
        "holonomy": spec.holonomy.tolist(),
        "developing": by_key(spec.window, spec.developing.tolist(), ","),
    }
    if isinstance(spec.group, Rk):
        out["scalar_cochains"] = [
            by_key(edges, x, "-") for x in spec.cochain.T.tolist()
        ]
    else:
        out["cochain"] = by_key(edges, spec.cochain.tolist(), "-")
    return out


def shuffled(spec, seed):
    """spec with its window rows in a random order, one row repeated with
    another value (the later row wins), and rows at negative points."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(spec.window))
    extra = spec.window[order[:3]] - 3 * spec.complex.covering.m
    window = np.concatenate([spec.window[order], extra, spec.window[order[:1]]])
    dev = spec.developing[order]
    again = spec.group.mul(spec.holonomy[0], dev[:1])
    developing = np.concatenate([dev, dev[:3], again])
    return dataclasses.replace(spec, window=window, developing=developing)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ga_suspension(5, GAElement(1.7, -0.4)),
        lambda: product_foliation(ga_suspension(8, GAElement(1.5, 0.3))),
        lambda: product_foliation(ga_suspension(12, GAElement(1.0, 0.9))),
        lambda: linear_torus_spec(4, [[1.0, 0.5], [0.25, -2.0]]),
        lambda: linear_torus_spec(3, [[1.0, 0.5, 2.0], [0.0, 1.0, -1.0]]),
    ],
)
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_dump_orders_keys_as_a_python_sort(make, seed):
    spec = make()
    if seed is not None:
        spec = shuffled(spec, seed)
    got = json.dumps(dump_foliation_spec(spec))
    assert got == json.dumps(dump_by_sorted_keys(spec))
