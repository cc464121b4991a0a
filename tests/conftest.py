import itertools
import json

import numpy as np
import pytest
from hypothesis import strategies as st

from tracegen import MonoidBundle, validate_independence
from tracegen.verify import _follow_edges


def make_bundle(letters, pairs):
    """Bundle from one-directional pairs (closure applied)."""
    return MonoidBundle(validate_independence(letters, pairs, symmetric_closure=True))


def dense_parry(family, starts, entries):
    """A ``ParryPair`` entry array (``B`` or ``C``) on the follow edges of the
    start cliques ``starts`` (``verify._follow_edges``) as the dense matrix it
    stands for: one row per start, one column per non-empty clique."""
    src, nxt = _follow_edges(family.follow_classes, starts)
    out = np.zeros((len(starts), len(family)))
    out[src, nxt] = entries
    return out[:, 1:]


def cycle_complement(n):
    """C_n^c: n letters on a cycle, each depending only on its two neighbours."""
    letters = [f"x{i:02d}" for i in range(n)]
    pairs = [(letters[i], letters[j]) for i in range(n) for j in range(i + 2, n)
             if (j - i) % n != n - 1]
    return make_bundle(letters, pairs)


def block_spec(path, blocks, dependent=()):
    """Write a spec over the letters a0, a1, ... split into consecutive blocks
    of the given sizes: letters in one block never commute, and letters in
    different blocks do, except the listed pairs ``(i, j)``, ``i < j``, of
    letter indices."""
    block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
    letters = [f"a{i}" for i in range(len(block_of))]
    pairs = [[letters[i], letters[j]]
             for i, j in itertools.combinations(range(len(letters)), 2)
             if block_of[i] != block_of[j] and (i, j) not in dependent]
    spec = {"letters": letters, "independence": pairs, "symmetric_closure": True}
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


@st.composite
def independence_graphs(draw, max_letters=8):
    """Independence graph on at most ``max_letters`` (up to 8) letters; half of
    the draws are made reducible by letting two blocks of letters commute with
    each other."""
    letters = "abcdefgh"[: draw(st.integers(1, max_letters))]
    pairs = {p for p in itertools.combinations(letters, 2) if draw(st.booleans())}
    if len(letters) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(letters) - 1))
        pairs |= {(a, b) for a in letters[:cut] for b in letters[cut:]}
    return list(letters), sorted(pairs)


@pytest.fixture(scope="session")
def fig1():
    """Three letters, a and b commute, c blocks both."""
    return make_bundle(["a", "b", "c"], [("a", "b")])


@pytest.fixture(scope="session")
def free1():
    return make_bundle(["a"], [])


@pytest.fixture(scope="session")
def free2():
    return make_bundle(["a", "b"], [])


@pytest.fixture(scope="session")
def free3():
    return make_bundle(["a", "b", "c"], [])


@pytest.fixture(scope="session")
def path4():
    """Independence graph is the path a-b-c-d; dependence stays connected."""
    return make_bundle(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])


@pytest.fixture(scope="session")
def cycle5():
    """Independence graph is a 5-cycle; its complement is again a 5-cycle."""
    letters = ["a", "b", "c", "d", "e"]
    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]
    return make_bundle(letters, pairs)


@pytest.fixture(scope="session")
def tri4():
    """A commuting triangle a,b,c plus a letter d depending on all of them."""
    return make_bundle(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "c")])


@pytest.fixture(scope="session")
def prod32():
    """Product of a free 3-letter and a free 2-letter monoid."""
    letters = ["a1", "a2", "a3", "b1", "b2"]
    pairs = [(a, b) for a in ("a1", "a2", "a3") for b in ("b1", "b2")]
    return make_bundle(letters, pairs)


@pytest.fixture(scope="session")
def c14():
    return cycle_complement(14)


@pytest.fixture(scope="session")
def prod22():
    letters = ["a1", "a2", "b1", "b2"]
    pairs = [(a, b) for a in ("a1", "a2") for b in ("b1", "b2")]
    return make_bundle(letters, pairs)


@pytest.fixture(scope="session")
def irreducible_five(fig1, free2, path4, cycle5, tri4):
    """The five irreducible monoids used by the chain-algebra criteria."""
    return [fig1, free2, path4, cycle5, tri4]


@pytest.fixture(scope="session")
def monoid_files(tmp_path_factory):
    """Monoid spec files for CLI runs: fig1 and the 3/2 product."""
    root = tmp_path_factory.mktemp("monoids")
    fig1_path = root / "fig1.json"
    fig1_path.write_text(
        '{"letters": ["a", "b", "c"], "independence": [["a", "b"], ["b", "a"]]}\n',
        encoding="utf-8",
    )
    prod_path = root / "prod32.json"
    prod_path.write_text(
        '{"letters": ["a1", "a2", "a3", "b1", "b2"],\n'
        ' "independence": [["a1", "b1"], ["a1", "b2"], ["a2", "b1"], ["a2", "b2"],\n'
        '                  ["a3", "b1"], ["a3", "b2"]],\n'
        ' "symmetric_closure": true}\n',
        encoding="utf-8",
    )
    return {"fig1": str(fig1_path), "prod32": str(prod_path)}
