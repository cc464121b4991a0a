import itertools
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracegen import (
    cf_admissible,
    decompose_components,
    enumerate_cliques,
    load_monoid,
    parse_monoid,
    validate_independence,
)
from tracegen.errors import (
    AlphabetTooLarge,
    AsymmetricPair,
    CliqueExplosion,
    DuplicateLetter,
    InvalidMonoidFile,
    ReflexivePair,
    UnknownLetter,
    UnknownLetterInPair,
)
from tracegen.monoid import iter_bits
from tracegen.oracle import letter_admissible

from conftest import independence_graphs, make_bundle


def test_validate_fig1_pair():
    pair = validate_independence(["a", "b", "c"], [("a", "b"), ("b", "a")])
    assert pair.size == 3
    assert pair.independent(0, 1) and pair.independent(1, 0)
    assert not pair.independent(0, 2)
    # dependence masks include the letter itself
    assert pair.dep_masks[0] & 1


def test_validate_single_letter():
    pair = validate_independence(["a"], [])
    assert pair.size == 1
    assert pair.indep_masks == (0,)


def test_validate_errors():
    with pytest.raises(DuplicateLetter):
        validate_independence(["a", "a"], [])
    with pytest.raises(ReflexivePair):
        validate_independence(["a", "b"], [("a", "a")])
    with pytest.raises(AsymmetricPair):
        validate_independence(["a", "b"], [("a", "b")])
    with pytest.raises(UnknownLetterInPair):
        validate_independence(["a", "b"], [("a", "x"), ("x", "a")])
    with pytest.raises(AlphabetTooLarge):
        validate_independence([f"x{i}" for i in range(65)], [])
    with pytest.raises(AlphabetTooLarge):
        validate_independence([], [])


def test_symmetric_closure_flag():
    pair = validate_independence(["a", "b"], [("a", "b")], symmetric_closure=True)
    assert pair.independent(0, 1) and pair.independent(1, 0)


def test_unknown_letter_lookup():
    pair = validate_independence(["a"], [])
    with pytest.raises(UnknownLetter):
        pair.letter_index("z")


def test_cliques_fig1(fig1):
    fam = fig1.family
    # empty, {a}, {b}, {c}, {a,b}; sorted by size then mask
    assert fam.masks == (0, 1, 2, 4, 3)
    assert fam.index_of(0) == 0
    assert [fig1.pair.letters_of_mask(m) for m in fam.masks] == [
        [], ["a"], ["b"], ["c"], ["a", "b"]
    ]


def test_cliques_free2(free2):
    assert free2.family.masks == (0, 1, 2)


def test_cliques_prod32(prod32):
    fam = prod32.family
    assert len(fam) == 12  # empty + 5 singletons + 6 mixed pairs
    assert int(fam.sizes.max()) == 2


def test_family_closed_under_subsets(fig1, path4, cycle5, tri4, prod32):
    for bundle in (fig1, path4, cycle5, tri4, prod32):
        fam = bundle.family
        for mask in fam.masks:
            sub = mask
            while sub:
                assert sub in fam.by_mask
                sub = (sub - 1) & mask


def assert_follow_rule(family):
    """Matrix, compressed class rows, ``cf_admissible`` and the oracle's letter
    rule agree on every pair."""
    adm = family.admissibility
    class_of = family.follow_classes.class_of
    for i, ci in enumerate(family.masks):
        row = []
        for j, cj in enumerate(family.masks):
            want = letter_admissible(family.pair, ci, cj)
            assert adm[i, j] == want
            assert cf_admissible(family.pair, ci, cj) == want
            if want:
                row.append(j)
        assert family.class_columns(class_of[i]).tolist() == row


def test_admissibility_matches_scalar_rule(irreducible_five, prod32):
    for bundle in list(irreducible_five) + [prod32]:
        assert_follow_rule(bundle.family)


@settings(max_examples=100, deadline=None)
@given(independence_graphs())
def test_follow_rule_on_random_monoids(graph):
    letters, pairs = graph
    pair = validate_independence(letters, pairs, symmetric_closure=True)
    assert_follow_rule(enumerate_cliques(pair))


@settings(max_examples=100, deadline=None)
@given(independence_graphs())
def test_follow_class_nodes_on_random_monoids(graph):
    # two cliques share a (class, size) node exactly when they share both
    # their follow class and their size; each node's rep is its first clique
    letters, pairs = graph
    fam = enumerate_cliques(validate_independence(letters, pairs, symmetric_closure=True))
    classes = fam.follow_classes
    node_of, rep = classes.node_of.tolist(), classes.node_rep.tolist()
    keys = list(zip(classes.class_of.tolist(), fam.sizes.tolist()))
    node_by_key = dict(zip(keys, node_of))
    assert [node_by_key[key] for key in keys] == node_of
    assert sorted(node_by_key.values()) == list(range(len(rep)))
    assert rep == [node_of.index(v) for v in range(len(rep))]


def test_follow_examples(fig1):
    pair = fig1.pair
    a, b, c = (pair.mask_of_letters([x]) for x in "abc")
    assert pair.follow(0) == 0
    assert pair.follow(a) == a | c
    assert pair.follow(a | b) == pair.full_mask
    assert pair.follow(c) == pair.full_mask


def or_of_dep_masks(pair, mask):
    out = 0
    for i in range(pair.size):
        if mask >> i & 1:
            out |= pair.dep_masks[i]
    return out


@settings(max_examples=100, deadline=None)
@given(independence_graphs(), st.data())
def test_follow_memo_on_random_monoids(graph, data):
    # D(m) is the OR of the letters' dependence masks on a first lookup, on a
    # repeat and after a pickle round trip; the memo is not part of equality
    letters, pairs = graph
    pair = validate_independence(letters, pairs, symmetric_closure=True)
    masks = data.draw(st.lists(st.integers(0, pair.full_mask), min_size=1, max_size=12))
    want = [or_of_dep_masks(pair, m) for m in masks]
    assert [pair.follow(m) for m in masks] == want
    assert [pair.follow(m) for m in masks] == want
    copy = pickle.loads(pickle.dumps(pair))
    assert [copy.follow(m) for m in range(pair.full_mask + 1)] == [
        or_of_dep_masks(pair, m) for m in range(pair.full_mask + 1)
    ]
    fresh = validate_independence(letters, pairs, symmetric_closure=True)
    assert pair == fresh and copy == fresh and pair == copy
    assert hash(pair) == hash(fresh) == hash(copy)


def test_cf_admissible_examples(fig1):
    pair = fig1.pair
    c = pair.mask_of_letters(["c"])
    ab = pair.mask_of_letters(["a", "b"])
    a = pair.mask_of_letters(["a"])
    b = pair.mask_of_letters(["b"])
    assert cf_admissible(pair, c, ab)       # a and b both depend on c
    assert cf_admissible(pair, a, 0)        # anything may end
    assert not cf_admissible(pair, 0, a)    # nothing follows the empty clique
    assert cf_admissible(pair, 0, 0)
    assert not cf_admissible(pair, a, b)    # b is independent of a


def test_empty_clique_absorbing_in_family(fig1):
    adm = fig1.family.admissibility
    assert adm[0, 0]
    assert not adm[0, 1:].any()
    assert adm[1:, 0].all()


def test_clique_cap():
    pair = validate_independence(
        list("abcdefgh"),
        [(x, y) for x in "abcdefgh" for y in "abcdefgh" if x != y],
    )
    with pytest.raises(CliqueExplosion):
        enumerate_cliques(pair, cap=100)


def test_decompose_fig1(fig1):
    assert decompose_components(fig1.pair) == (0b111,)
    assert fig1.irreducible and fig1.components == [fig1]


def test_decompose_free2(free2):
    assert decompose_components(free2.pair) == (free2.pair.full_mask,)


def test_decompose_prod32(prod32):
    pair = prod32.pair
    comps = decompose_components(pair)
    assert comps == (pair.mask_of_letters(["a1", "a2", "a3"]),
                     pair.mask_of_letters(["b1", "b2"]))
    # a component's cliques keep the global bit positions: here each factor
    # is free, so its cliques are the empty one and its single letters
    for cb, comp in zip(prod32.components, comps):
        assert cb.pair is pair and cb.alphabet == cb.family.alphabet == comp
        assert cb.family.masks == (0, *(1 << i for i in iter_bits(comp)))
    # a component splits no further
    assert decompose_components(pair, comps[1]) == (comps[1],)


def test_component_independence_restricted():
    bundle = make_bundle(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "d"), ("b", "d"), ("c", "d")],
    )
    # d commutes with everything, so {d} is its own component;
    # a,b,c stay connected through c and keep their internal independence
    assert decompose_components(bundle.pair) == (0b0111, 0b1000)
    abc = bundle.components[0].family
    assert abc.alphabet == 0b0111
    assert abc.masks == (0, 0b001, 0b010, 0b100, 0b011)
    assert bundle.components[1].family.masks == (0, 0b1000)


def dependence_connected(pair, letters):
    """Do the letter indices ``letters`` form one connected piece of the
    dependence graph?  A search over letter pairs, one at a time."""
    seen, todo = {letters[0]}, [letters[0]]
    while todo:
        i = todo.pop()
        for j in letters:
            if j not in seen and not pair.independent(i, j):
                seen.add(j)
                todo.append(j)
    return len(seen) == len(letters)


@settings(max_examples=100, deadline=None)
@given(independence_graphs())
def test_components_partition_the_alphabet(graph):
    # the component masks are disjoint, cover every letter, come in
    # first-letter order, are each connected, and commute with each other
    letters, pairs = graph
    pair = validate_independence(letters, pairs, symmetric_closure=True)
    comps = decompose_components(pair)
    assert sum(comps) == pair.full_mask
    assert all(a & b == 0 for a, b in itertools.combinations(comps, 2))
    firsts = [comp & -comp for comp in comps]
    assert firsts == sorted(firsts)
    for comp in comps:
        assert dependence_connected(pair, list(iter_bits(comp)))
    for a, b in itertools.combinations(comps, 2):
        assert all(pair.independent(i, j) for i in iter_bits(a) for j in iter_bits(b))


@settings(max_examples=100, deadline=None)
@given(independence_graphs())
def test_component_families_are_the_cliques_inside_their_masks(graph):
    # a component's family is the global family's cliques inside its mask,
    # in the global order, on the global bit positions
    letters, pairs = graph
    bundle = make_bundle(letters, pairs)
    masks = bundle.family.masks
    for cb in bundle.components:
        assert cb.pair is bundle.pair
        fam = cb.family
        assert fam.alphabet == cb.alphabet
        assert fam.masks == tuple(m for m in masks if m & ~cb.alphabet == 0)
        assert fam.masks == enumerate_cliques(bundle.pair, alphabet=cb.alphabet).masks


def test_monoid_file_round_trip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "letters": ["a", "b", "c"],
        "independence": [["a", "b"], ["b", "a"]],
    }), encoding="utf-8")
    pair = load_monoid(path)
    assert pair.letters == ("a", "b", "c")
    assert pair.independent(0, 1)


def test_monoid_file_one_directional_needs_flag(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "letters": ["a", "b"],
        "independence": [["a", "b"]],
    }), encoding="utf-8")
    with pytest.raises(AsymmetricPair):
        load_monoid(path)
    path.write_text(json.dumps({
        "letters": ["a", "b"],
        "independence": [["a", "b"]],
        "symmetric_closure": True,
    }), encoding="utf-8")
    assert load_monoid(path).independent(0, 1)


def test_monoid_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}", encoding="utf-8")
    with pytest.raises(InvalidMonoidFile) as err:
        load_monoid(bad)
    assert "line 2" in str(err.value)
    with pytest.raises(InvalidMonoidFile):
        parse_monoid({"letters": ["a"]})
    with pytest.raises(InvalidMonoidFile):
        parse_monoid([1, 2])
    with pytest.raises(InvalidMonoidFile):
        parse_monoid({"letters": ["a"], "independence": [["a"]]})


def test_is_clique(fig1):
    pair = fig1.pair
    assert pair.is_clique(0)
    assert pair.is_clique(pair.mask_of_letters(["a", "b"]))
    assert not pair.is_clique(pair.mask_of_letters(["a", "c"]))


def test_admissibility_is_lazy(fig1):
    fam = enumerate_cliques(fig1.pair)
    assert fam._adm is None
    _ = fam.admissibility
    assert fam._adm is not None
    assert fam.admissibility is fam._adm


def test_masks_np_dtype(prod32):
    assert prod32.family.masks_np.dtype == np.uint64
