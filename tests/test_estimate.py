import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracegen import (
    RandomSource,
    Trace,
    builtin_cost,
    divides,
    enumerate_cliques,
    estimate_expectation,
    h_vector,
    normalize_word,
    phibar,
    theta_k,
    topped_prefix_batch,
    trace_line,
    validate_independence,
)
from tracegen.errors import ParameterOutOfRange
from tracegen.traces import left_quotient
from tracegen.estimate import Moments, _divisor_sums, report_from_moments
from tracegen.oracle import (
    divisor_sums_by_peeling,
    enumerate_Mk,
    exact_uniform_expectation,
    iter_admissible_chains,
    length_k_divisors,
)

from conftest import independence_graphs

LIFTED = ("height", "first-layer", "one")


def assert_lifts_match_oracle(family, x, k, costs):
    """theta_k and every phibar against sums over the brute-force divisors."""
    want = length_k_divisors(family, x, k)
    assert theta_k(x, k) == len(want)
    for phi in costs:
        assert phibar(phi, x, k) == sum(phi(y) for y in want), (phi.name, x, k)


def test_theta_alternating_clique_power(fig1):
    # stacking the two-letter clique k times admits exactly k+1 divisors
    for k in range(1, 6):
        x = normalize_word("ab" * k, fig1.pair)
        assert x.height == k
        assert theta_k(x, k) == k + 1
        assert len(length_k_divisors(fig1.family, x, k)) == k + 1


def test_theta_totally_ordered_chain(fig1, free2):
    assert theta_k(normalize_word("ccc", fig1.pair), 3) == 1
    assert theta_k(normalize_word("aba", free2.pair), 3) == 1


def test_divisors_against_oracle(fig1, tri4, prod32):
    # the divisor count and every builtin lift match brute force
    costs = [builtin_cost(name) for name in LIFTED]
    for bundle in (fig1, tri4, prod32):
        traces = [t for n in range(6) for t in enumerate_Mk(bundle.family, n)]
        for x in traces:
            if x.height > 4:
                continue
            assert_lifts_match_oracle(bundle.family, x, x.height, costs)


def test_divisors_below_height(fig1):
    # also correct when asking for shorter divisors than the height cutoff
    x = normalize_word("acab", fig1.pair)
    costs = [builtin_cost(name) for name in LIFTED]
    for k in range(x.length + 1):
        assert_lifts_match_oracle(fig1.family, x, k, costs)


def test_phibar_constant_is_theta(fig1):
    one = builtin_cost("one")
    for word in ("abab", "acab", "ccc"):
        x = normalize_word(word, fig1.pair)
        assert phibar(one, x, x.height) == theta_k(x, x.height)


def test_phibar_indicator_prefix(fig1):
    x = normalize_word("abab", fig1.pair)  # height 2, length 4
    u = normalize_word("aa", fig1.pair)
    v = normalize_word("ca", fig1.pair)
    phi_u = builtin_cost(f"prefix:[[\"a\"],[\"a\"]]", fig1.pair)
    assert phibar(phi_u, x, 2) == (1.0 if divides(u, x) else 0.0) == 1.0
    phi_v = builtin_cost(f"prefix:[[\"c\"],[\"a\"]]", fig1.pair)
    assert phibar(phi_v, x, 2) == 0.0 and not divides(v, x)


def test_phibar_height_example(fig1):
    # divisors of (ab)^2 at length 2: the clique {a,b}, a.a, b.b
    x = normalize_word("abab", fig1.pair)
    heights = sorted(y.height for y in length_k_divisors(fig1.family, x, 2))
    assert heights == [1, 2, 2]
    assert phibar(builtin_cost("height"), x, 2) == 5.0


def test_lift_edges(fig1):
    # the empty divisor, a prefix cost at exactly |u| (u a proper divisor and
    # u == x), and a prefix longer than the divisors asked for
    assert theta_k(Trace(fig1.pair), 0) == 1
    x = normalize_word("abcab", fig1.pair)
    for word in ("a", "ab", "abc", "abcab"):
        u = normalize_word(word, fig1.pair)
        phi = builtin_cost("prefix:" + trace_line(u), fig1.pair)
        assert divides(u, x)
        assert phibar(phi, x, u.length) == 1
        assert phibar(phi, x, u.length - 1) == 0


@pytest.mark.parametrize("name, k, n", [("fig1", 10, 1_000), ("prod32", 10, 300), ("c14", 6, 100)])
def test_lift_matches_peeling_walk(name, k, n, request):
    # the layer pass against the normal-form walk, triple for triple, on
    # sampled boundary prefixes
    bundle = request.getfixturevalue(name)
    rows = topped_prefix_batch(bundle, k, n, RandomSource(29).generator())
    for row in rows.tolist():
        layers = tuple(m for m in row if m)
        assert _divisor_sums(layers, k, bundle.pair) == divisor_sums_by_peeling(
            layers, k, bundle.pair
        ), layers


def test_forced_completion_edges(fig1):
    pair = fig1.pair
    abc, aba, abcc = (normalize_word(w, pair) for w in ("abc", "aba", "abcc"))
    # ab.c at k = 2: leaving out b (or a) would force c, which depends on it,
    # so only the clique {a, b} is a divisor
    assert abc.layers == (0b011, 0b100)
    assert _divisor_sums(abc.layers, 2, pair) == (1, 1, 2)
    assert theta_k(abc, 2) == 1 == len(length_k_divisors(fig1.family, abc, 2))
    # ab.a at k = 2: leaving out b forces the second a, which commutes with b
    assert _divisor_sums(aba.layers, 2, pair) == (2, 3, 3)
    # ab.c.c at k = 3: no state is left after layer 1, below the top
    assert abcc.height == 3
    assert _divisor_sums(abcc.layers, 3, pair) == (1, 2, 2)
    assert divisor_sums_by_peeling(abcc.layers, 3, pair) == (1, 2, 2)
    # empty layers above the prefix add no height
    assert _divisor_sums(abcc.layers + (0, 0), 3, pair) == (1, 2, 2)
    assert _divisor_sums(aba.layers + (0,), 2, pair) == (2, 3, 3)


@pytest.mark.parametrize("name", ["fig1", "prod32", "c14"])
def test_lift_of_a_prefix_of_size_k(name, request):
    # a prefix with exactly k letters is its own one divisor
    bundle = request.getfixturevalue(name)
    k = 4
    rows = topped_prefix_batch(bundle, k, 2_000, RandomSource(31).generator()).tolist()
    tight = [tuple(row) for row in rows if sum(m.bit_count() for m in row) == k]
    assert tight
    for layers in tight:
        want = (1, len(layers), layers[0].bit_count())
        assert _divisor_sums(layers, k, bundle.pair) == want
        assert divisor_sums_by_peeling(layers, k, bundle.pair) == want


@settings(max_examples=150, deadline=None)
@given(independence_graphs(), st.data())
def test_lift_matches_peeling_on_random_monoids(graph, data):
    # at k = |x|, |x| - 1 and |x| - 2 forced completion decides most divisors
    letters, pairs = graph
    pair = validate_independence(letters, pairs, symmetric_closure=True)
    word = data.draw(st.lists(st.sampled_from(letters), max_size=12))
    x = normalize_word(word, pair)
    for k in range(max(0, x.length - 2), x.length + 1):
        assert _divisor_sums(x.layers, k, pair) == divisor_sums_by_peeling(
            x.layers, k, pair
        ), (x.layers, k)


@settings(max_examples=150, deadline=None)
@given(independence_graphs(max_letters=6), st.data())
def test_lift_matches_peeling_at_every_length(graph, data):
    # every k from 0 to |x| + 1, so both the upward pass (k <= |x| - k) and
    # the downward one (|x| - k < k) run, with and without an empty top layer
    letters, pairs = graph
    pair = validate_independence(letters, pairs, symmetric_closure=True)
    word = data.draw(st.lists(st.sampled_from(letters), max_size=12))
    x = normalize_word(word, pair)
    for k in range(x.length + 2):
        want = divisor_sums_by_peeling(x.layers, k, pair)
        for layers in (x.layers, x.layers + (0,)):
            assert _divisor_sums(layers, k, pair) == want, (layers, k)


def test_lift_on_either_side_of_the_direction_switch(fig1):
    # in fig1 a and b commute, so the ideals of (ab)^i a^j are pairs of
    # chain lengths: (a count, b count) with one first-layer letter per
    # non-empty chain and the longer chain as height
    pair = fig1.pair
    even, odd = normalize_word("ababab", pair), normalize_word("ababa", pair)
    assert (even.length, odd.length) == (6, 5)
    # e = k = 3, the last length taken upwards: (0,3) (1,2) (2,1) (3,0)
    assert _divisor_sums(even.layers, 3, pair) == (4, 3 + 2 + 2 + 3, 1 + 2 + 2 + 1)
    # e = 2 = k - 1, the first taken downwards: (1,2) (2,1) (3,0)
    assert _divisor_sums(odd.layers, 3, pair) == (3, 2 + 2 + 3, 2 + 2 + 1)
    costs = [builtin_cost(name) for name in LIFTED]
    for x in (even, odd):
        for k in range(x.length + 1):
            assert _divisor_sums(x.layers, k, pair) == divisor_sums_by_peeling(x.layers, k, pair)
            assert_lifts_match_oracle(fig1.family, x, k, costs)


def test_prefix_lift_takes_each_direction(fig1):
    # prefix:a on (ab)^3 lifts u^-1 x = (ab)^2 b, 5 letters, at k - 1:
    # k = 3 counts its 2-letter ideals upwards, k = 4 its 3-letter ones
    # downwards; both are the divisors with at least one a: 3 of them
    pair = fig1.pair
    x = normalize_word("ababab", pair)
    phi = builtin_cost('prefix:[["a"]]', pair)
    quotient = left_quotient(normalize_word("a", pair).layers, x.layers, pair)
    assert sum(m.bit_count() for m in quotient) == 5
    for k in (3, 4):
        assert phibar(phi, x, k) == 3
        assert_lifts_match_oracle(fig1.family, x, k, [phi])


def test_lift_past_the_prefix_is_empty(fig1):
    # a prefix has no divisor longer than itself
    x = normalize_word("abcab", fig1.pair)
    for k in (x.length + 1, 2 * x.length + 3):
        assert _divisor_sums(x.layers, k, fig1.pair) == (0, 0, 0)
        assert _divisor_sums(x.layers + (0,), k, fig1.pair) == (0, 0, 0)
        assert theta_k(x, k) == 0
    assert _divisor_sums((), 1, fig1.pair) == (0, 0, 0)


@st.composite
def monoid_and_words(draw):
    """Independence graph on at most 5 letters, a word x of at most 7 letters,
    and a word u no longer than x that is a prefix of x half of the time."""
    letters = "abcde"[: draw(st.integers(1, 5))]
    pairs = [p for p in itertools.combinations(letters, 2) if draw(st.booleans())]
    word = draw(st.lists(st.sampled_from(letters), max_size=7))
    size = draw(st.integers(0, len(word)))
    if draw(st.booleans()):
        u_word = word[:size]
    else:
        u_word = draw(st.lists(st.sampled_from(letters), min_size=size, max_size=size))
    return list(letters), pairs, word, u_word


@settings(max_examples=100, deadline=None)
@given(monoid_and_words())
def test_lifts_match_oracle_on_random_monoids(case):
    letters, pairs, word, u_word = case
    pair = validate_independence(letters, pairs, symmetric_closure=True)
    x = normalize_word(word, pair)
    u = normalize_word(u_word, pair)
    costs = [builtin_cost(name) for name in LIFTED]
    costs.append(builtin_cost("prefix:" + trace_line(u), pair))
    family = enumerate_cliques(pair)
    for k in range(x.length + 1):
        assert_lifts_match_oracle(family, x, k, costs)


def exact_lift_sum(bundle, k, phi):
    """Finite-sum expectation of the lifted cost over all k-step chains."""
    fam = bundle.family
    sizes = fam.sizes
    h = h_vector(fam, bundle.p0)
    total = 0.0
    for states in iter_admissible_chains(fam, k):
        prob = bundle.p0 ** int(sum(sizes[s] for s in states[:-1])) * float(h[states[-1]])
        if prob == 0.0:
            continue
        layers = [fam.masks[s] for s in states if s != 0]
        x = Trace(bundle.pair, tuple(layers))
        total += prob * phibar(phi, x, k)
    return total


def test_exact_integration_identity(fig1, tri4, prod32):
    # the lifted-cost expectation equals p0^k * count * uniform average,
    # reducible input included
    height = builtin_cost("height")
    first = builtin_cost("first_layer_size")
    one = builtin_cost("one")
    for bundle in (fig1, tri4, prod32):
        for k in range(1, 4):
            lam = bundle.lambda_k(k)
            scale = bundle.p0 ** k * lam
            assert abs(exact_lift_sum(bundle, k, one) - scale) < 1e-10
            for phi in (height, first):
                want = scale * exact_uniform_expectation(bundle.family, k, phi)
                assert abs(exact_lift_sum(bundle, k, phi) - want) < 1e-10


def test_theta_mean_matches_count_scaling(fig1):
    # Monte-Carlo mean of the divisor count recovers p0^6 * lambda(6)
    k, n = 6, 100_000
    rng = RandomSource(71).generator()
    rows = topped_prefix_batch(fig1, k, n, rng)
    thetas = np.empty(n)
    for i, row in enumerate(rows):
        x = Trace(fig1.pair, tuple(int(m) for m in row))
        thetas[i] = theta_k(x, k)
    want = fig1.p0 ** k * 377
    se = thetas.std(ddof=1) / math.sqrt(n)
    assert abs(thetas.mean() - want) <= 4 * se


def test_estimate_constant_one_is_exact(fig1):
    report = estimate_expectation(
        fig1, 4, builtin_cost("one"), 500, RandomSource(3).generator()
    )
    assert report.estimate == 1.0
    assert report.standard_error == 0.0
    assert report.sample_count == 500


def test_estimate_height_matches_oracle(fig1):
    k, n = 5, 20_000
    report = estimate_expectation(
        fig1, k, builtin_cost("height"), n, RandomSource(101).generator()
    )
    exact = exact_uniform_expectation(fig1.family, k, builtin_cost("height"))
    assert abs(report.estimate - exact) <= 4 * report.standard_error
    assert report.standard_error > 0
    # count estimate side
    assert abs(report.lambda_hat - 144) <= 4 * report.lambda_hat_se


def test_estimate_se_shrinks_with_n(fig1):
    phi = builtin_cost("height")
    r1 = estimate_expectation(fig1, 4, phi, 4_000, RandomSource(7).generator())
    r2 = estimate_expectation(fig1, 4, phi, 16_000, RandomSource(7).generator())
    ratio = r2.standard_error / r1.standard_error
    assert 0.35 <= ratio <= 0.7  # quadrupling n halves the error


def test_estimate_warns_on_reducible(prod32):
    with pytest.warns(UserWarning, match="reducible"):
        report = estimate_expectation(
            prod32, 3, builtin_cost("height"), 2_000, RandomSource(5).generator()
        )
    exact = exact_uniform_expectation(prod32.family, 3, builtin_cost("height"))
    assert abs(report.estimate - exact) <= 5 * report.standard_error


def test_estimate_validation(fig1):
    phi = builtin_cost("one")
    rng = RandomSource(0).generator()
    with pytest.raises(ParameterOutOfRange):
        estimate_expectation(fig1, 0, phi, 1000, rng)
    with pytest.raises(ParameterOutOfRange):
        estimate_expectation(fig1, 3, phi, 50, rng)
    one = Moments()
    one.add(1.0, 1.0)
    with pytest.raises(ParameterOutOfRange):
        report_from_moments(one, 3, fig1.p0)     # no error estimate from one sample


def test_builtin_cost_names(fig1):
    assert builtin_cost("height").name == "height"
    assert builtin_cost("first-layer").name == "first_layer_size"
    assert builtin_cost("one").name == "constant_one"
    t = normalize_word("ab", fig1.pair)
    assert builtin_cost("first_layer_size")(t) == 2.0
    assert builtin_cost("height")(t) == 1.0
    with pytest.raises(ValueError):
        builtin_cost("nonsense")
    with pytest.raises(ValueError):
        builtin_cost("prefix:[]")  # needs the monoid
