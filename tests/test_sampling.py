import copy
import itertools
import math
import pickle
import tracemalloc
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracegen import (
    MonoidBundle,
    RandomSource,
    Trace,
    cf_admissible,
    expected_size,
    normalize_word,
    project,
    sample_subuniform_trace,
    sample_subuniform_traces,
    sample_uniform_traces,
    topped_prefix_batch,
    trace_from_layers,
    validate_independence,
)
from tracegen import chain as chain_mod
from tracegen import oracle, sampling
from tracegen.chain import CliqueChain, absorbing_layers
from tracegen.errors import IterationCap, ParameterOutOfRange, RejectBudgetExhausted
from tracegen.estimate import accumulate_moments, builtin_cost
from tracegen.monoid import CliqueFamily
from tracegen.oracle import (
    all_walker_prefix_batch,
    all_walker_uniform_traces,
    dense_cdf,
    dense_steps,
)

from conftest import independence_graphs


def within_se(observed_freq, prob, n, mult=4.0):
    se = math.sqrt(max(prob * (1.0 - prob), 1e-300) / n)
    return abs(observed_freq - prob) <= mult * se + 1e-12


def test_random_source_determinism():
    a = RandomSource(123, 5).generator().random(100)
    b = RandomSource(123, 5).generator().random(100)
    c = RandomSource(123, 6).generator().random(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


class FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class ScriptedUniform:
    def __init__(self, us):
        self.us = iter(us)

    def random(self):
        return next(self.us)


def scalar_step(chain, state, u):
    """The scalar walk's step: ``bisect`` between the state's row bounds."""
    cums, cols, lo, hi = chain._walk_tables
    return cols[bisect_right(cums, u, lo[state], hi[state])]


def test_first_state_at_h_total_is_last_clique(irreducible_five):
    # h's float total can fall short of 1 (path4, cycle5): a uniform at that
    # total or just below 1 must land on the last clique in both kernels
    totals = [np.cumsum(b.boundary_chain().h)[-1] for b in irreducible_five]
    assert min(totals) < 1.0
    for bundle, total in zip(irreducible_five, totals):
        ch = bundle.boundary_chain()
        n = ch.n_states
        lo, hi = ch.lo[n], ch.hi[n]
        first = ch.P_cum[lo:hi].tolist()
        assert ch.cols[lo:hi].tolist() == list(range(n))
        assert first[:-1] == np.cumsum(ch.h)[:-1].tolist() and first[-1] == math.inf
        for u in (total, np.nextafter(1.0, 0.0)):
            # the first draw is a step from the start state n
            assert ch.step(np.array([n]), np.array([u])).tolist() == [n - 1]
            assert bisect_right(first, float(u)) == n - 1
            assert scalar_step(ch, n, float(u)) == n - 1


def test_step_at_row_total_stays_admissible(cycle5):
    # rows whose float total falls short of 1 and whose last clique is not
    # admissible: a uniform at or above the total must land on an admissible
    # clique (the row's last one), in both step kernels
    ch = cycle5.boundary_chain()
    adm = cycle5.family.admissibility
    totals = np.cumsum(ch.P, axis=1)[:, -1]
    rows = [r for r in range(1, ch.n_states) if totals[r] < 1.0 and not adm[r, -1]]
    assert rows
    for r in rows:
        last = int(np.flatnonzero(adm[r])[-1])
        for u in (totals[r], np.nextafter(totals[r], 1.0)):
            assert ch.step(np.array([r]), np.array([u])).tolist() == [last]
            assert scalar_step(ch, r, float(u)) == last


def compact_steps_match_dense(chain):
    # u at 0, at each row's float total and just above it: both step kernels
    # land where counting the dense CDF row lands
    n = chain.n_states
    totals = np.cumsum(chain.P, axis=1)[:, -1]
    states = np.repeat(np.arange(n), 3)
    u = np.stack([np.zeros(n), totals, np.nextafter(totals, np.inf)], axis=1).ravel()
    want = dense_steps(dense_cdf(chain), states, u)
    assert chain.step(states, u).tolist() == want.tolist()
    assert [scalar_step(chain, int(s), float(x)) for s, x in zip(states, u)] == want.tolist()
    # the scalar walk's bounds are those of each state's row, start state n's too
    cums, cols, lo, hi = chain._walk_tables
    assert lo == chain.lo.tolist() and hi == chain.hi.tolist()
    # each state's row: the dense CDF's cumulative sums on its admissible
    # columns bit for bit, ending in +inf on the last one; the start state's
    # row is h's cumulative sums over every clique
    adm = np.vstack([chain.family.admissibility, np.ones(n, dtype=bool)])
    dense = np.vstack([np.cumsum(chain.P, axis=1), np.cumsum(chain.h)])
    for state in range(n + 1):
        a, b = lo[state], hi[state]
        assert np.isinf(chain.P_cum[a:b]).sum() == 1
        assert cols[a:b].tolist() == np.flatnonzero(adm[state]).tolist()
        assert cums[a:b].tolist()[:-1] == dense[state][adm[state]][:-1].tolist()
        assert cums[b - 1] == math.inf
    rows = sorted(set(zip(lo, hi)))
    assert all(x[1] == y[0] for x, y in zip(rows, rows[1:]))
    assert np.isinf(chain.P_cum).sum() == len(rows)
    # states with equal keys (D(c), g(c)) share a row, and only they do; the
    # start state's key is (the family's alphabet, 1.0)
    follow = [*map(chain.family.pair.follow, chain.family.masks), chain.family.alphabet]
    keys = list(zip(follow, np.append(chain.g, 1.0).view(np.uint64).tolist()))
    key_of_row = {}
    for key, row in zip(keys, lo):
        assert key_of_row.setdefault(row, key) == key
    assert len(key_of_row) == len(set(keys)) == len(rows)


def test_compact_steps_match_dense_on_fixtures(irreducible_five, prod32):
    for bundle in [*irreducible_five, prod32]:
        for cb in bundle.components:
            for p in (bundle.p0, 0.5 * bundle.p0):
                compact_steps_match_dense(cb.chain(p))


def edge_uniforms(stored, total):
    """Uniforms at a row's edges: 0, each stored cumulative value and the
    float just below it, the row's float total and the float just above it,
    and the largest uniform below 1."""
    u = np.concatenate([[0.0], stored, np.nextafter(stored, -np.inf),
                        [total, np.nextafter(total, np.inf), np.nextafter(1.0, 0.0)]])
    return np.unique(u[u >= 0.0])


def test_step_kernel_on_every_row_width(monkeypatch):
    # one row of each width 1..18, 32 and 33, with ties (a zero weight
    # repeats the cumulative value before it): both kernels land inside each
    # row where searchsorted with side="right" lands, on the +inf entry for
    # a uniform at or above the row's total
    rng = np.random.default_rng(5)
    widths = [*range(1, 19), 32, 33]
    rows, totals = [], []
    for w in widths:
        weights = rng.random(w) * (rng.random(w) < 0.7)
        cum = np.cumsum(weights / max(weights.sum(), 1.0))
        totals.append(cum[-1])
        cum[-1] = np.inf
        rows.append(cum)
    bounds = np.cumsum([0, *widths])
    P_cum = np.concatenate(rows)
    cols = np.arange(len(P_cum), dtype=np.int32)
    # a chain whose sampling CDF, formed on first read, is these rows
    cdf = (P_cum, cols, bounds[:-1], bounds[1:])
    monkeypatch.setattr(chain_mod, "_compact_cdf", lambda *law: cdf)
    ch = CliqueChain(None, 0.0, False, None, None)
    for state, (cum, total) in enumerate(zip(rows, totals)):
        u = edge_uniforms(cum[:-1], total)
        want = (bounds[state] + np.searchsorted(cum, u, side="right")).tolist()
        assert want[-1] == bounds[state + 1] - 1
        assert ch.step(np.full(len(u), state), u).tolist() == want
        assert [scalar_step(ch, state, float(x)) for x in u] == want


def chain_edge_steps(chain):
    """Every state, the start state n included, with each edge uniform of its
    row, and the states a searchsorted over its dense CDF row gives them."""
    n = chain.n_states
    dense = np.vstack([dense_cdf(chain), np.append(np.cumsum(chain.h)[:-1], np.inf)])
    totals = np.append(np.cumsum(chain.P, axis=1)[:, -1], np.cumsum(chain.h)[-1])
    states, us = [], []
    for state in range(n + 1):
        u = edge_uniforms(chain.P_cum[chain.lo[state]:chain.hi[state] - 1], totals[state])
        states.append(np.full(len(u), state))
        us.append(u)
    states, us = np.concatenate(states), np.concatenate(us)
    want = [int(np.searchsorted(dense[s], x, side="right")) for s, x in zip(states, us)]
    return states, us, want


def test_step_edges_agree_with_dense_searchsorted(irreducible_five, prod32):
    # u at 0, at each stored cumulative value and just below it, at the row's
    # float total and just above it, and just below 1: the batched step and
    # the scalar bisect land where a searchsorted over the dense CDF lands,
    # on rows of widths 1, 2^j (4, 8) and 2^j + 1 (3, 5, 9)
    widths = set()
    for bundle in [*irreducible_five, prod32]:
        for cb in bundle.components:
            for p in (bundle.p0, 0.5 * bundle.p0):
                ch = cb.chain(p)
                widths.update((ch.hi - ch.lo).tolist())
                states, us, want = chain_edge_steps(ch)
                assert ch.step(states, us).tolist() == want
                assert [scalar_step(ch, int(s), float(x)) for s, x in zip(states, us)] == want
    assert {1, 3, 4, 5, 8, 9} <= widths


def walk_states(chain, draw):
    """The states of one absorbing walk of ``chain`` alone, read back from
    the layer kernel's masks: one state per layer."""
    return [chain.family.index_of(m) for m in absorbing_layers([chain], draw)]


def test_absorbing_walk_follows_step(irreducible_five, prod32):
    # below the root, a walk scripted with an edge uniform of the start row,
    # then one of the state it reaches, then zeros (a zero from any
    # non-empty state draws the empty clique) visits the states that the
    # batched step gives for the same uniforms
    for bundle in [*irreducible_five, prod32]:
        for cb in bundle.components:
            ch = cb.chain(0.5 * bundle.p0)
            n = ch.n_states
            states, us, _ = chain_edge_steps(ch)
            by_state = {s: us[states == s].tolist() for s in range(n + 1)}
            for u1 in by_state[n]:
                first = int(ch.step(np.array([n]), np.array([u1]))[0])
                for u2 in by_state[first] if first else [0.0]:
                    want, state = [], n
                    for u in (u1, u2, 0.0, 0.0):
                        state = int(ch.step(np.array([state]), np.array([u]))[0])
                        if not state:
                            break
                        want.append(state)
                    assert state == 0
                    script = itertools.chain((u1, u2), itertools.repeat(0.0))
                    assert walk_states(ch, ScriptedUniform(script).random) == want


@settings(max_examples=60, deadline=None)
@given(independence_graphs())
def test_compact_steps_match_dense_on_random_monoids(graph):
    # each component's chain at the monoid's root (its own root or below it)
    # and at half the root
    letters, pairs = graph
    bundle = MonoidBundle(validate_independence(letters, pairs, symmetric_closure=True))
    for cb in bundle.components:
        for p in (bundle.p0, 0.5 * bundle.p0):
            compact_steps_match_dense(cb.chain(p))


def test_walk_stops_at_step_cap(monkeypatch, fig1):
    # u just below 1 always picks the row's last column, a non-empty clique,
    # so the walk never absorbs and must stop at the cap
    monkeypatch.setattr(chain_mod, "FINITE_STEP_CAP", 5)
    chain = fig1.chain(0.2)
    with pytest.raises(IterationCap):
        walk_states(chain, FixedUniform(np.nextafter(1.0, 0.0)).random)
    # five steps and an absorbing sixth draw fit under the cap; six do not
    assert len(walk_states(chain, ScriptedUniform([0.99] * 5 + [0.0]).random)) == 5
    with pytest.raises(IterationCap):
        walk_states(chain, ScriptedUniform([0.99] * 6 + [0.0]).random)


def test_boundary_prefix_basics(fig1):
    (prefix,) = topped_prefix_batch(fig1, 10, 1, RandomSource(7).generator()).tolist()
    assert len(prefix) == 10
    assert all(m != 0 for m in prefix)
    assert all(cf_admissible(fig1.pair, a, b) for a, b in zip(prefix, prefix[1:]))
    again = topped_prefix_batch(fig1, 10, 1, RandomSource(7).generator())
    assert again.tolist() == [prefix]


def state_indices(bundle, rows):
    """Clique indices of an irreducible monoid's layer masks."""
    order = np.argsort(bundle.family.masks_np)
    return order[np.searchsorted(bundle.family.masks_np, rows, sorter=order)]


def test_boundary_initial_law(fig1):
    # first-clique frequencies against the initial vector, a million draws
    ch = fig1.boundary_chain()
    n = 1_000_000
    rows = topped_prefix_batch(fig1, 1, n, RandomSource(11).generator())
    states = state_indices(fig1, rows[:, 0])
    counts = np.bincount(states, minlength=len(fig1.family))
    assert counts[0] == 0
    for idx in range(1, len(fig1.family)):
        assert within_se(counts[idx] / n, float(ch.h[idx]), n)


def test_boundary_free2_iid_uniform(free2):
    n, k = 100_000, 6
    rows = topped_prefix_batch(free2, k, n, RandomSource(3).generator())
    states = state_indices(free2, rows)
    assert set(np.unique(states)) == {1, 2}
    flat = states.ravel()
    assert within_se(float((flat == 1).mean()), 0.5, flat.size, mult=4.5)
    # consecutive letters uncorrelated: joint 11 frequency near 1/4
    pairs = (states[:, :-1] == 1) & (states[:, 1:] == 1)
    assert within_se(float(pairs.mean()), 0.25, pairs.size, mult=4.5)


def test_boundary_transition_frequency(fig1):
    # empirical jump {c} -> {a,b} against p0^2
    ch = fig1.boundary_chain()
    fam = fig1.family
    i_c, i_ab = fam.index_of(0b100), fam.index_of(0b011)
    rows = topped_prefix_batch(fig1, 6, 200_000, RandomSource(5).generator())
    states = state_indices(fig1, rows)
    src = states[:, :-1] == i_c
    m = int(src.sum())
    hits = int((states[:, 1:][src] == i_ab).sum())
    assert within_se(hits / m, fig1.p0 ** 2, m)


def test_finite_trace_basics(fig1):
    rng = RandomSource(1).generator()
    t = sample_subuniform_trace(fig1, 0.2, rng)
    assert all(
        cf_admissible(fig1.pair, a, b) for a, b in zip(t.layers, t.layers[1:])
    )
    again = sample_subuniform_trace(fig1, 0.2, RandomSource(1).generator())
    assert again == t
    with pytest.raises(ParameterOutOfRange):
        sample_subuniform_trace(fig1, fig1.p0, rng)


def test_finite_trace_law(fig1):
    # empty-trace mass, mean length, and the exact per-trace law for short traces
    p = 0.2
    mu_p = float(fig1.mu(p))
    n = 200_000
    counts = {}
    traces = sample_subuniform_traces(fig1, p, n, RandomSource(17).generator())
    lengths = np.array([t.length for t in traces], dtype=float)
    for t in traces:
        if t.length <= 3:
            counts[t] = counts.get(t, 0) + 1
    assert within_se(counts.get(Trace(fig1.pair), 0) / n, mu_p, n)
    mean_exp = expected_size(fig1.mu, p, fig1.p0)
    se = lengths.std(ddof=1) / math.sqrt(n)
    assert abs(lengths.mean() - mean_exp) <= 4 * se
    from tracegen.oracle import enumerate_Mk

    for k in range(4):
        for x in enumerate_Mk(fig1.family, k):
            assert within_se(counts.get(x, 0) / n, p ** k * mu_p, n, mult=4.5)


def test_finite_trace_free2_geometric(free2):
    # at p = 1/4 the length is geometric with ratio 1/2
    n = 100_000
    traces = sample_subuniform_traces(free2, 0.25, n, RandomSource(23).generator())
    lens = np.array([t.length for t in traces])
    for m in range(4):
        assert within_se(float((lens == m).mean()), 0.5 ** (m + 1), n, mult=4.5)


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("name, n", [("fig1", 300), ("prod32", 300), ("c14", 60)])
def test_subuniform_batch_is_the_single_draw_stream(request, monkeypatch, name, n, block):
    # blocks of 1, 3 and 7 uniforms: refills land mid-walk and between
    # components, and the batch still reads the generator's values in the
    # order n single draws on the same (seed, stream) take them
    bundle = request.getfixturevalue(name)
    monkeypatch.setattr(sampling, "_DRAW_BLOCK", block)
    p = 0.9 * bundle.p0
    rng = RandomSource(9, 3).generator()
    want = [sample_subuniform_trace(bundle, p, rng) for _ in range(n)]
    assert sample_subuniform_traces(bundle, p, n, RandomSource(9, 3).generator()) == want
    assert max(t.height for t in want) > block  # some walk spans a refill


@settings(max_examples=60, deadline=None)
@given(independence_graphs())
def test_subuniform_batch_matches_single_draws_on_random_monoids(graph):
    letters, pairs = graph
    bundle = MonoidBundle(validate_independence(letters, pairs, symmetric_closure=True))
    p = bundle.p0 / 2
    rng = RandomSource(5, 1).generator()
    want = [sample_subuniform_trace(bundle, p, rng) for _ in range(40)]
    with mock.patch.object(sampling, "_DRAW_BLOCK", 3):
        got = sample_subuniform_traces(bundle, p, 40, RandomSource(5, 1).generator())
    assert got == want


def test_subuniform_batch_edges(prod32):
    rng = RandomSource(14).generator()
    assert sample_subuniform_traces(prod32, 0.25, 0, rng) == []
    with pytest.raises(ParameterOutOfRange):
        sample_subuniform_traces(prod32, prod32.p0, 5, rng)


def test_uniform_mk_single(fig1):
    (t,), rej = sample_uniform_traces(fig1, 5, 1, RandomSource(9).generator())
    assert t.length == 5
    assert rej >= 0
    (again,), rej2 = sample_uniform_traces(fig1, 5, 1, RandomSource(9).generator())
    assert again == t and rej2 == rej


def test_uniform_mk_k0(fig1):
    ts, rej = sample_uniform_traces(fig1, 0, 5, RandomSource(0).generator())
    assert rej == 0 and all(t == Trace(fig1.pair) for t in ts)


def test_uniform_mk_budget(free2):
    with pytest.raises(RejectBudgetExhausted):
        sample_uniform_traces(free2, 20, 1, RandomSource(4).generator(), max_rejects=1)


def test_uniform_mk_batch_matches_contract(fig1):
    ts, rej = sample_uniform_traces(fig1, 4, 3000, RandomSource(31).generator())
    assert len(ts) == 3000
    assert all(t.length == 4 for t in ts)
    assert rej > 0
    ts2, rej2 = sample_uniform_traces(fig1, 4, 3000, RandomSource(31).generator())
    assert ts2 == ts and rej2 == rej


def test_uniform_mk_small_chi_square(fig1):
    from tracegen.oracle import chi_square_uniformity, enumerate_Mk

    k = 3
    lam = fig1.growth(k)[k]
    ts, _ = sample_uniform_traces(fig1, k, 500 * lam, RandomSource(12).generator())
    m3 = enumerate_Mk(fig1.family, k)
    counts = np.zeros(len(m3))
    for t in ts:
        counts[m3.index[t]] += 1
    res = chi_square_uniformity(counts, significance=0.001)
    assert res.passed


def test_uniform_mk_reducible(prod32):
    ts, _ = sample_uniform_traces(prod32, 4, 2000, RandomSource(8).generator())
    assert all(t.length == 4 for t in ts)
    # layers must be admissible in the product monoid
    for t in ts[:100]:
        trace_from_layers(prod32.pair, t.layers)


def component_rows(bundle, rows, ci):
    """Each layer mask of ``rows`` restricted to the letters of component ``ci``."""
    alphabet = bundle.components[ci].alphabet
    return [[int(m) & alphabet for m in row] for row in rows]


def test_sample_product_structure(prod32, prod22, fig1):
    # a component at the global root fills every layer; one below it absorbs
    rows = topped_prefix_batch(prod32, 4, 200, RandomSource(2).generator())
    assert all(m != 0 for row in component_rows(prod32, rows, 0) for m in row)
    for row in component_rows(prod32, rows, 1):
        height = sum(m != 0 for m in row)
        assert all(row[:height]) and not any(row[height:])
    rows22 = topped_prefix_batch(prod22, 3, 200, RandomSource(2).generator())
    for ci in (0, 1):  # equal factors: both at the root
        assert all(m != 0 for row in component_rows(prod22, rows22, ci) for m in row)
    t = sample_subuniform_trace(fig1, 0.2, RandomSource(2).generator())
    trace_from_layers(fig1.pair, t.layers)


def test_merge_product_prefix(prod32):
    k = 4
    rows = topped_prefix_batch(prod32, k, 50, RandomSource(19).generator())
    for row, a_prefix in zip(rows, component_rows(prod32, rows, 0)):
        layers = [int(m) for m in row]
        assert len(layers) == k
        assert all(m != 0 for m in layers)  # the at-root factor fills every layer
        trace_from_layers(prod32.pair, layers)
        # the big-factor part of each merged layer is a component prefix
        trace_from_layers(prod32.pair, a_prefix)


def test_product_stop_rate(prod32):
    # the small factor stops with probability 1 - |B|/|A| = 1/3 at every draw;
    # a run outlives a 48-layer prefix with probability (2/3)^48 < 4e-9
    n, k = 100_000, 48
    rows = topped_prefix_batch(prod32, k, n, RandomSource(21).generator())
    b_side = np.uint64(prod32.pair.mask_of_letters(["b1", "b2"]))
    heights = ((rows & b_side) != 0).sum(axis=1)
    assert heights.max() < k
    stops = n  # every run ends with exactly one stop draw
    draws = int(heights.sum()) + n
    assert within_se(stops / draws, 1.0 / 3.0, draws)


def test_subuniform_trace_merging(prod32):
    rng = RandomSource(14).generator()
    t = sample_subuniform_trace(prod32, 0.25, rng)
    trace_from_layers(prod32.pair, t.layers)
    with pytest.raises(ParameterOutOfRange):
        sample_subuniform_trace(prod32, prod32.p0, rng)


def test_walked_bundle_copies_and_pickles(fig1):
    # a draw caches the chain's walk tables, memoryviews that cannot be
    # copied; a pickled and a deep-copied bundle leave them out, rebuild them
    # on their first walk and draw the same traces as the original
    bundle = MonoidBundle(fig1.pair)
    sample_subuniform_trace(bundle, 0.2, RandomSource(1).generator())
    copies = [pickle.loads(pickle.dumps(bundle)), copy.deepcopy(bundle)]
    rngs = [RandomSource(2).generator() for _ in range(3)]
    for _ in range(20):
        want = sample_subuniform_trace(bundle, 0.2, rngs[0])
        assert [sample_subuniform_trace(c, 0.2, r) for c, r in zip(copies, rngs[1:])] == [want, want]

def test_merge_product_trace_is_commuting_product(prod32):
    rng = RandomSource(33).generator()
    for _ in range(20):
        merged = sample_subuniform_trace(prod32, 0.25, rng)
        # concatenating the component words in either order gives the same trace
        word_a, word_b = (project(merged, cb.alphabet).word() for cb in prod32.components)
        assert merged == normalize_word(word_a + word_b, prod32.pair)
        assert merged == normalize_word(word_b + word_a, prod32.pair)


def test_topped_prefix_batch_irreducible(fig1):
    rows = topped_prefix_batch(fig1, 5, 500, RandomSource(6).generator())
    assert rows.shape == (500, 5)
    assert (rows != 0).all()
    for row in rows[:50]:
        trace_from_layers(fig1.pair, (int(m) for m in row))


def test_topped_prefix_batch_product(prod32):
    rows = topped_prefix_batch(prod32, 4, 500, RandomSource(6).generator())
    assert rows.shape == (500, 4)
    assert (rows != 0).all()  # the at-root factor never absorbs
    for row in rows[:50]:
        trace_from_layers(prod32.pair, (int(m) for m in row))


def test_topped_prefix_deterministic(prod32):
    a = topped_prefix_batch(prod32, 4, 200, RandomSource(42).generator())
    b = topped_prefix_batch(prod32, 4, 200, RandomSource(42).generator())
    assert np.array_equal(a, b)


def test_samplers_never_form_P(monkeypatch, fig1, prod32):
    # the samplers and the estimator draw from the CDFs only; the dense
    # transitions and the admissibility matrix are formed for verification
    def refuse(obj):
        raise AssertionError(f"{type(obj).__name__} matrix read outside verification")

    monkeypatch.setattr(CliqueChain, "P", property(refuse))
    monkeypatch.setattr(CliqueFamily, "admissibility", property(refuse))
    rng = RandomSource(5).generator()
    for bundle in (fig1, prod32):
        topped_prefix_batch(bundle, 6, 20, rng)
        sample_uniform_traces(bundle, 4, 20, rng)
        sample_subuniform_trace(bundle, bundle.p0 / 2, rng)
        sample_subuniform_traces(bundle, bundle.p0 / 2, 20, rng)
        accumulate_moments(bundle, 4, builtin_cost("height", bundle.pair), 20, rng)


@pytest.mark.parametrize("name, k, n", [("fig1", 6, 700), ("prod32", 8, 400), ("c14", 6, 150)])
def test_live_walkers_match_all_walker_reference(request, monkeypatch, name, k, n):
    # a 61-row chunk: many chunks per batch, and the n-th acceptance lands
    # inside one; the generators must also agree on what comes next
    bundle = request.getfixturevalue(name)
    monkeypatch.setattr(sampling, "_CHUNK_ROWS", 61)
    rng, ref_rng = RandomSource(4).generator(), RandomSource(4).generator()
    traces, rej = sample_uniform_traces(bundle, k, n, rng)
    want, want_rej = all_walker_uniform_traces(bundle, k, n, ref_rng)
    assert traces == want and rej == want_rej
    assert (n + rej) % 61 != 0
    assert rng.random() == ref_rng.random()
    # both give up in the same batch, having drawn the same uniforms
    rng, ref_rng = RandomSource(5).generator(), RandomSource(5).generator()
    with pytest.raises(RejectBudgetExhausted):
        sample_uniform_traces(bundle, k, 10 * n, rng, max_rejects=n)
    with pytest.raises(RejectBudgetExhausted):
        all_walker_uniform_traces(bundle, k, 10 * n, ref_rng, max_rejects=n)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("name, k, n", [
    ("fig1", 7, 500), ("prod32", 9, 400), ("c14", 6, 200),
    ("fig1", 0, 100), ("prod32", 0, 100), ("prod32", 1, 130),
])
def test_boundary_chunks_match_all_walker_reference(request, monkeypatch, name, k, n):
    # a 61-row chunk: several chunks per call, the last one short; prod32's
    # second component walks below its own root and absorbs
    bundle = request.getfixturevalue(name)
    monkeypatch.setattr(sampling, "_CHUNK_ROWS", 61)
    assert n % 61 != 0
    rng, ref_rng = RandomSource(8).generator(), RandomSource(8).generator()
    rows = topped_prefix_batch(bundle, k, n, rng)
    assert rows.shape == (n, k)
    assert np.array_equal(rows, all_walker_prefix_batch(bundle, k, n, ref_rng))
    assert rng.random() == ref_rng.random()
    if name == "prod32" and k:
        # a layer without b letters: the b component has absorbed there
        b_letters = np.uint64(bundle.components[1].alphabet)
        assert ((rows & b_letters) == 0).any()


@pytest.mark.parametrize("name, k, n", [("fig1", 7, 500), ("prod32", 9, 400), ("prod32", 0, 130)])
def test_uniform_chunks_are_the_traces_in_order(request, monkeypatch, name, k, n):
    # 61-row chunks: the generator hands out each chunk's acceptances, none
    # empty, and returns the rejections; the wrapper's traces are the same
    # rows, and both leave the generator in the same place
    bundle = request.getfixturevalue(name)
    monkeypatch.setattr(sampling, "_CHUNK_ROWS", 61)
    rng, ref_rng = RandomSource(4).generator(), RandomSource(4).generator()
    chunks = sampling.uniform_layer_chunks(bundle, k, n, rng)
    got = []
    with pytest.raises(StopIteration) as end:
        while True:
            got.append(next(chunks))
    traces, rej = sample_uniform_traces(bundle, k, n, ref_rng)
    assert all(0 < len(rows) <= 61 for rows in got)
    assert [Trace(bundle.pair, layers) for rows in got for layers in rows] == traces
    assert end.value.value == rej
    assert rng.random() == ref_rng.random()
    if k:
        assert len(got) > 1


@pytest.mark.parametrize("n", [0, 1, 61, 200])
def test_subuniform_chunks_are_the_traces_in_order(monkeypatch, prod32, n):
    monkeypatch.setattr(sampling, "_CHUNK_ROWS", 61)
    p = 0.9 * prod32.p0
    got = list(sampling.subuniform_layer_chunks(prod32, p, n, RandomSource(2).generator()))
    assert [len(rows) for rows in got] == [min(61, n - lo) for lo in range(0, n, 61)]
    want = sample_subuniform_traces(prod32, p, n, RandomSource(2).generator())
    assert [Trace(prod32.pair, layers) for rows in got for layers in rows] == want
    # the parameter is checked even when no draw is asked for
    with pytest.raises(ParameterOutOfRange):
        list(sampling.subuniform_layer_chunks(prod32, prod32.p0, n, RandomSource(2).generator()))


def test_product_exact_k_spans_batches(monkeypatch, prod32):
    # k = 20 on prod32 accepts about 2 % of proposals: with batches capped at
    # 2^14 rows, n = 1 500 takes several batches of four chunks each
    monkeypatch.setattr(sampling, "_CHUNK_ROWS", 1 << 12)
    monkeypatch.setattr(sampling, "_BATCH_CAP", 1 << 14)
    traces, rej = sample_uniform_traces(prod32, 20, 1500, RandomSource(6).generator())
    want, want_rej = all_walker_uniform_traces(prod32, 20, 1500, RandomSource(6).generator())
    assert traces == want and rej == want_rej
    assert 1500 + rej > 3 << 14


# skips a batched walk makes: a few doubles, whole Philox blocks, and the
# C * batch * (k+1) doubles of exact-k batches
SKIPS = st.one_of(
    st.integers(0, 9),
    st.integers(0, 1 << 20).map(lambda q: 4 * q),
    st.builds(lambda batch, k: batch * (k + 1), st.integers(1, 1 << 18), st.integers(0, 200)),
)


@settings(max_examples=150, deadline=None)
@given(prior=st.integers(0, 9), skip=SKIPS, half=st.booleans())
def test_positioned_stream_is_the_sequential_stream(prior, skip, half):
    # after any number of prior draws, with or without a 32-bit half buffered,
    # the positioned copy draws what the generator draws after ``skip`` more
    # doubles, and the generator itself is untouched
    def drawn(n):
        rng = RandomSource(2, 5).generator()
        if half:
            rng.integers(1 << 32, dtype=np.uint32)
        rng.random(n)
        return rng

    rng = drawn(prior)
    before = repr(rng.bit_generator.state)
    ahead = sampling._positioned(rng, skip)
    assert repr(rng.bit_generator.state) == before
    ref = drawn(prior + skip)
    assert np.array_equal(ahead.random(9), ref.random(9))
    assert ahead.integers(1 << 32, dtype=np.uint32) == ref.integers(1 << 32, dtype=np.uint32)


def test_every_seed_keys_its_own_stream(recwarn):
    # seeds in [0, 2^63) keep the key a Python list gave them; past int64 the
    # list went through float64 and keyed seed 0's stream, with a warning
    def first(key):
        return np.random.Generator(np.random.Philox(key=key)).random(3).tolist()

    for seed in (0, 1, 12345, (1 << 63) - 1):
        assert RandomSource(seed, 2).generator().random(3).tolist() == first([seed, 2])
    draws = {tuple(RandomSource(seed).generator().random(3).tolist())
             for seed in (0, -1, -2, (1 << 64) - 2, (1 << 63) + 1)}
    assert len(draws) == 4  # -2 and 2^64 - 2 are the same 64-bit key
    assert RandomSource(-1, -1).generator().random() != RandomSource(0).generator().random()
    assert len(recwarn) == 0


def test_positioned_stream_refuses_other_generators(fig1):
    # only a counter-based Philox stream can be skipped exactly; any other
    # generator is refused, not silently read from the wrong place
    for rng in (np.random.default_rng(1), np.random.Generator(np.random.MT19937(1))):
        with pytest.raises(TypeError):
            sampling._positioned(rng, 5)
        with pytest.raises(TypeError):
            sample_uniform_traces(fig1, 6, 10, rng)
        with pytest.raises(TypeError):
            topped_prefix_batch(fig1, 6, 10, rng)


def test_exact_k_holds_one_chunk_of_history(prod32):
    # k = 200 on prod32 accepts 0.19 % of proposals, so n = 100 takes one
    # batch of ~65 000 rows: its whole (k+1, batch) history per component
    # and its uniforms were held at once before, 51 MiB at the peak; one row
    # chunk's are held now
    rng, ref_rng = RandomSource(3).generator(), RandomSource(3).generator()
    tracemalloc.start()
    try:
        traces, rej = sample_uniform_traces(prod32, 200, 100, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20
    want, want_rej = all_walker_uniform_traces(prod32, 200, 100, ref_rng)
    assert traces == want and rej == want_rej
    assert rng.random() == ref_rng.random()


def test_exact_k_stops_walking_at_the_nth_acceptance(monkeypatch, fig1):
    # fig1 at k = 60: one batch of ~59 000 proposals in chunks of 4 096 rows;
    # the chunks after the one holding the n-th acceptance are never drawn or
    # stepped, and rng still ends after the whole batch's draws
    batches, stepped = [], []
    walk_chunks, walk_live = sampling._walk_chunks, sampling._walk_live

    def counted_chunks(chains, sizes, bound, steps, batch, rng):
        batches.append(batch)
        return walk_chunks(chains, sizes, bound, steps, batch, rng)

    def counted_live(chain, size, bound, u, hist, total):
        stepped.append(len(total))
        walk_live(chain, size, bound, u, hist, total)

    monkeypatch.setattr(sampling, "_walk_chunks", counted_chunks)
    monkeypatch.setattr(sampling, "_walk_live", counted_live)
    rng, ref_rng = RandomSource(9).generator(), RandomSource(9).generator()
    traces, rej = sample_uniform_traces(fig1, 60, 300, rng)
    want, want_rej = all_walker_uniform_traces(fig1, 60, 300, ref_rng)
    assert traces == want and rej == want_rej
    (batch,) = batches
    assert 300 + rej <= sum(stepped) < batch
    assert rng.random() == ref_rng.random()
