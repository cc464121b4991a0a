import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracegen import (
    Trace,
    cf_admissible,
    divides,
    normalize_word,
    parse_trace,
    project,
    serialize_trace,
    topping,
    trace_concat,
    trace_from_layers,
    trace_line,
    validate_independence,
)
from tracegen.errors import InvalidTrace, UnknownLetter
from tracegen.oracle import congruence_closure, enumerate_Mk
from tracegen.traces import layers_block, layers_line

from conftest import independence_graphs, make_bundle


def is_valid_chain(t):
    if any(m == 0 for m in t.layers):
        return False
    return all(
        cf_admissible(t.pair, a, b) for a, b in zip(t.layers, t.layers[1:])
    )


def all_words(letters, length):
    return itertools.product(letters, repeat=length)


def test_normalize_acab(fig1):
    t = normalize_word("acab", fig1.pair)
    assert [fig1.pair.letters_of_mask(m) for m in t.layers] == [["a"], ["c"], ["a", "b"]]
    assert t.height == 3 and t.length == 4


def test_congruent_words_normalize_equal(fig1):
    assert normalize_word("acab", fig1.pair) == normalize_word("acba", fig1.pair)


def test_normalize_empty(fig1):
    t = normalize_word("", fig1.pair)
    assert t.layers == () and t.length == 0 and t.height == 0


def test_normalize_unknown_letter(fig1):
    with pytest.raises(UnknownLetter):
        normalize_word("ax", fig1.pair)


def test_normal_form_soundness_small(fig1, free2, prod22):
    # every member of a word's swap closure lands on the same heap
    for bundle, maxlen in ((fig1, 5), (free2, 5), (prod22, 4)):
        letters = bundle.pair.letters
        for n in range(maxlen + 1):
            for word in all_words(letters, n):
                t = normalize_word(word, bundle.pair)
                assert is_valid_chain(t)
                for other in congruence_closure(word, bundle.pair):
                    assert normalize_word(other, bundle.pair) == t


def test_concat_examples(fig1):
    pair = fig1.pair
    a = normalize_word("a", pair)
    b = normalize_word("b", pair)
    ab = trace_concat(a, b)
    assert ab.height == 1 and ab.length == 2  # a and b commute into one layer
    assert trace_concat(a, Trace(pair)) == a
    assert trace_concat(Trace(pair), a) == a
    ac = normalize_word("ac", pair)
    assert trace_concat(ac, ab) == normalize_word("acab", pair)
    other = make_bundle(["a", "b", "c"], [("a", "c")]).pair
    with pytest.raises(ValueError):
        trace_concat(a, normalize_word("a", other))   # traces of two different pairs


def test_concat_length_additive_and_associative(fig1, tri4):
    for bundle in (fig1, tri4):
        pair = bundle.pair
        words = ["", "a", "ab", "abc", "cab", "bca"]
        for w1, w2, w3 in itertools.product(words, repeat=3):
            u, v, w = (normalize_word(x, pair) for x in (w1, w2, w3))
            uv = trace_concat(u, v)
            assert uv.length == u.length + v.length
            assert uv == normalize_word(w1 + w2, pair)
            assert trace_concat(uv, w) == trace_concat(u, trace_concat(v, w))
            assert is_valid_chain(trace_concat(uv, w))


def test_topping(fig1):
    t = normalize_word("acab", fig1.pair)
    assert topping(t, 2) == normalize_word("ac", fig1.pair)
    assert topping(t, 0) == Trace(fig1.pair)
    assert topping(t, 7) == t


def test_divides_examples(fig1):
    pair = fig1.pair
    acab = normalize_word("acab", pair)
    assert divides(normalize_word("a", pair), acab)
    assert not divides(normalize_word("b", pair), acab)
    assert divides(acab, acab)
    assert divides(Trace(pair), acab)
    assert not divides(acab, normalize_word("a", pair))
    other = make_bundle(["a", "b", "c"], [("a", "c")]).pair
    with pytest.raises(ValueError):
        divides(normalize_word("a", other), acab)   # traces of two different pairs


def brute_force_divides(u, v, family):
    if u.length > v.length:
        return False
    rest = v.length - u.length
    return any(trace_concat(u, w) == v for w in enumerate_Mk(family, rest))


def test_divides_against_brute_force(fig1):
    traces = [t for k in range(5) for t in enumerate_Mk(fig1.family, k)]
    for u in traces:
        for v in traces:
            assert divides(u, v) == brute_force_divides(u, v, fig1.family)


def test_topping_law(fig1, tri4):
    # u divides v exactly when u divides the topping of v at u's height
    for bundle in (fig1, tri4):
        traces = [t for k in range(5) for t in enumerate_Mk(bundle.family, k)]
        for u in traces:
            for v in traces:
                assert divides(u, v) == divides(u, topping(v, u.height))


def test_project_examples(prod32):
    pair = prod32.pair
    a_side, b_side = (cb.alphabet for cb in prod32.components)
    t = normalize_word(["a1", "b1", "a2"], pair)
    assert project(t, a_side) == normalize_word(["a1", "a2"], pair)
    assert project(t, b_side) == normalize_word(["b1"], pair)
    assert project(t, pair.full_mask) == t
    assert project(Trace(pair), a_side) == Trace(pair)
    # the b letters keep their layers: b1 stays on the floor below the a's
    t = normalize_word(["a1", "a2", "a3", "b1", "b2"], pair)
    assert project(t, b_side).layers == (t.layers[0] & b_side, t.layers[1] & b_side)
    assert t.layers[2] & b_side == 0


def test_project_is_morphism_and_partitions_length(prod32):
    pair = prod32.pair
    alphabets = [cb.alphabet for cb in prod32.components]
    words = [(), ("a1",), ("b1", "a1"), ("a1", "b2", "a2", "b1"), ("b1", "b2", "a3")]
    for w1 in words:
        for w2 in words:
            u = normalize_word(w1, pair)
            v = normalize_word(w2, pair)
            uv = trace_concat(u, v)
            assert uv.length == sum(project(uv, m).length for m in alphabets)
            for m in alphabets:
                assert project(uv, m) == trace_concat(project(u, m), project(v, m))


def test_product_reconstruction_any_component_order(prod32):
    # a reducible trace is the commuting product of its projections
    pair = prod32.pair
    for word in all_words(pair.letters, 3):
        t = normalize_word(word, pair)
        parts = [project(t, cb.alphabet) for cb in prod32.components]
        assert trace_concat(parts[0], parts[1]) == t
        assert trace_concat(parts[1], parts[0]) == t


@st.composite
def traces_of_random_monoids(draw):
    """A trace of up to 12 letters over an ``independence_graphs()`` monoid,
    with its bundle and the word it was normalized from."""
    letters, pairs = draw(independence_graphs())
    bundle = make_bundle(letters, pairs)
    word = draw(st.lists(st.sampled_from(letters), max_size=12))
    return bundle, word, normalize_word(word, bundle.pair)


@settings(max_examples=150, deadline=None)
@given(traces_of_random_monoids())
def test_layers_are_the_or_of_projections(case):
    # heap product: layer i of a trace is the OR of layer i of its
    # projections to the irreducible components
    bundle, _, t = case
    parts = [project(t, cb.alphabet) for cb in bundle.components]
    merged = [0] * t.height
    for part in parts:
        assert part.height <= t.height
        for i, m in enumerate(part.layers):
            merged[i] |= m
    assert tuple(merged) == t.layers


@settings(max_examples=150, deadline=None)
@given(traces_of_random_monoids())
def test_projection_is_a_masked_prefix(case):
    # a component's letters keep their layers: its projection is the masked
    # layers up to the first empty one, every later masked layer is empty,
    # and it is the normal form of the word's letters in the component
    bundle, word, t = case
    pair = bundle.pair
    for cb in bundle.components:
        u = project(t, cb.alphabet)
        masked = [m & cb.alphabet for m in t.layers]
        assert u.pair is pair
        assert list(u.layers) == masked[: u.height]
        assert not any(masked[u.height:])
        inside = [a for a in word if pair.mask_of_letters([a]) & cb.alphabet]
        assert u == normalize_word(inside, pair)


def test_serialization_round_trip(fig1):
    t = normalize_word("acab", fig1.pair)
    data = serialize_trace(t)
    assert data == [["a"], ["c"], ["a", "b"]]
    assert parse_trace(fig1.pair, data) == t
    assert parse_trace(fig1.pair, trace_line(t)) == t
    assert trace_line(Trace(fig1.pair)) == "[]"
    assert parse_trace(fig1.pair, "[]") == Trace(fig1.pair)


def test_parse_trace_rejects_bad_input(fig1):
    pair = fig1.pair
    with pytest.raises(InvalidTrace):
        parse_trace(pair, [[]])
    with pytest.raises(InvalidTrace):
        parse_trace(pair, [["a", "c"]])          # a and c do not commute
    with pytest.raises(InvalidTrace):
        parse_trace(pair, [["a"], ["b"]])        # b does not depend on a
    with pytest.raises(InvalidTrace):
        parse_trace(pair, [["a", "a"]])
    with pytest.raises(UnknownLetter):
        parse_trace(pair, [["z"]])
    with pytest.raises(UnknownLetter):
        parse_trace(pair, [[1]])                 # a letter entry that is not a string
    with pytest.raises(InvalidTrace):
        parse_trace(pair, "not json")
    with pytest.raises(InvalidTrace):
        parse_trace(pair, json.dumps({"layers": []}))


def test_layers_line(fig1):
    t = normalize_word("acab", fig1.pair)
    assert trace_line(t) == '[["a"],["c"],["a","b"]]'
    assert layers_line(fig1.pair, np.array(t.layers, dtype=np.uint64).tolist()) == trace_line(t)
    assert layers_line(fig1.pair, []) == "[]"


def test_layers_block_is_the_rows_lines(fig1):
    # one block per row chunk: each row's line, newline-separated, with no
    # newline at the end, which the writer adds
    rows = [normalize_word(w, fig1.pair).layers for w in ("acab", "", "b", "cc")]
    assert layers_block(fig1.pair, rows) == "\n".join(layers_line(fig1.pair, r) for r in rows)
    assert layers_block(fig1.pair, rows[:1]) == '[["a"],["c"],["a","b"]]'
    assert layers_block(fig1.pair, [(), ()]) == "[]\n[]"


def test_layers_line_escapes_as_json_dumps():
    # each layer is joined from per-letter JSON strings; letters that need
    # escaping (a quote, a backslash, a non-ASCII letter, a tab) must come
    # out as json.dumps writes them, in every layer they can form
    letters = ['"', "\\", "α", "\t"]
    pair = validate_independence(letters, list(itertools.combinations(letters, 2)),
                                 symmetric_closure=True)
    masks = list(range(1, 1 << len(letters)))
    layers = [pair.letters_of_mask(m) for m in masks]
    for mask, letters_in in zip(masks, layers):
        assert layers_line(pair, [mask]) == "[" + json.dumps(letters_in, separators=(",", ":")) + "]"
    assert layers_line(pair, masks) == json.dumps(layers, separators=(",", ":"))


def test_trace_from_layers_validation(fig1):
    pair = fig1.pair
    good = trace_from_layers(pair, (1, 4, 3))
    assert good == normalize_word("acab", pair)
    with pytest.raises(InvalidTrace):
        trace_from_layers(pair, (1, 2))
    with pytest.raises(InvalidTrace):
        trace_from_layers(pair, (1, 0))          # an empty layer


def test_trace_hashable_set_semantics(fig1):
    s = {normalize_word("acab", fig1.pair), normalize_word("acba", fig1.pair)}
    assert len(s) == 1
