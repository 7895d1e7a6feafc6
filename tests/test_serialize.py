"""Edge keys of JSON cochains: the parse against str.split and int, and which
of two keys on one edge wins."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slnfib.complexes import torus_complex
from slnfib.errors import InputError
from slnfib.serialize import (
    _edge_keys,
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
# signs, underscores, whitespace, commas and non-ASCII digits, which int takes
# in some places and not in others
ODD_KEYS = st.text(alphabet="0123456789-+_, \n٣a", max_size=7)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(PLAIN_KEYS, ODD_KEYS), max_size=5))
@example(["0-1", "2-3,4-5"])  # plain digits, but a comma inside one key
@example(["1-2", "3-99999999999999999999"])  # past 18 digits
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
    got = lie_cochain_from_json(k, obj).values[edge]
    assert got.tolist() == (sign * np.array([[b, 2.0], [0.0, -b]])).tolist()
