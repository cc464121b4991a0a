import math

import numpy as np
import pytest

from tracegen import Trace, normalize_word
from tracegen.errors import BudgetExceeded, InsufficientSamples
from tracegen.oracle import (
    chi_square_uniformity,
    congruence_closure,
    enumerate_Mk,
    enumerate_Mk_by_words,
    exact_uniform_expectation,
    iter_Mk,
)


def test_enumerate_counts(fig1, free2):
    assert len(enumerate_Mk(fig1.family, 0)) == 1
    assert enumerate_Mk(fig1.family, 0)[0] == Trace(fig1.pair)
    assert len(enumerate_Mk(fig1.family, 2)) == 8
    assert len(enumerate_Mk(free2.family, 3)) == 8


def test_enumerate_matches_growth(irreducible_five, prod32):
    for bundle in list(irreducible_five) + [prod32]:
        lam = bundle.growth(8)
        for k in range(9):
            assert len(enumerate_Mk(bundle.family, k)) == lam[k]


def test_enumerate_traces_are_valid_and_sorted(fig1):
    ts = enumerate_Mk(fig1.family, 4)
    layer_lists = [t.layers for t in ts]
    assert layer_lists == sorted(layer_lists)
    assert all(t.length == 4 for t in ts)
    assert len(set(ts.traces)) == len(ts)
    assert all(ts.index[t] == i for i, t in enumerate(ts))


def test_enumerate_budget(fig1):
    with pytest.raises(BudgetExceeded):
        enumerate_Mk(fig1.family, 6, budget=100)


def test_iter_Mk_streams_up_to_the_budget(fig1):
    traces = list(iter_Mk(fig1.family, 6))
    assert len(traces) == 377 and set(traces) == set(enumerate_Mk(fig1.family, 6))
    stream = iter_Mk(fig1.family, 6, budget=100)
    for _ in range(100):
        next(stream)
    with pytest.raises(BudgetExceeded):
        next(stream)


def test_enumerate_matches_golden_file(fig1):
    import json
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "fig1_m3.json"
    want = json.loads(golden.read_text(encoding="utf-8"))
    from tracegen import serialize_trace

    got = [serialize_trace(t) for t in enumerate_Mk(fig1.family, 3)]
    assert got == want


def test_word_dedup_cross_check(fig1, prod22):
    # independent route: normalize every word and deduplicate
    for bundle in (fig1, prod22):
        for k in range(6):
            fast = set(enumerate_Mk(bundle.family, k))
            slow = set(enumerate_Mk_by_words(bundle.pair, k))
            assert fast == slow


def test_word_enumeration_budget(fig1):
    with pytest.raises(BudgetExceeded):
        enumerate_Mk_by_words(fig1.pair, 10, budget=100)


def test_congruence_closure_examples(fig1, free3):
    assert congruence_closure("acab", fig1.pair) == {
        tuple("acab"), tuple("acba")
    }
    assert congruence_closure("abc", free3.pair) == {tuple("abc")}
    assert congruence_closure("ab", fig1.pair) == {tuple("ab"), tuple("ba")}
    assert congruence_closure("", fig1.pair) == {()}


def test_congruence_closure_cap(fig1):
    with pytest.raises(BudgetExceeded):
        congruence_closure("a" * 9, fig1.pair, max_len=8)


def test_closure_members_normalize_identically(fig1):
    for word in ("abab", "bcab", "caba"):
        t = normalize_word(word, fig1.pair)
        for other in congruence_closure(word, fig1.pair):
            assert normalize_word(other, fig1.pair) == t


def test_exact_uniform_expectation(fig1, free2):
    one = lambda t: 1.0
    height = lambda t: float(t.height)
    assert exact_uniform_expectation(fig1.family, 3, one) == 1.0
    assert abs(exact_uniform_expectation(fig1.family, 2, height) - 15 / 8) < 1e-15
    for k in range(1, 5):
        assert exact_uniform_expectation(free2.family, k, height) == float(k)


def test_chi_square_perfectly_uniform():
    res = chi_square_uniformity([100] * 8)
    assert res.statistic == 0.0
    assert res.pvalue == 1.0
    assert res.passed
    assert res.dof == 7


def test_chi_square_detects_bias():
    # one cell double-weighted out of 8, a million draws: far beyond critical
    n = 1_000_000
    probs = np.array([2.0] + [1.0] * 7) / 9.0
    counts = np.round(probs * n)
    res = chi_square_uniformity(counts, significance=0.001)
    assert not res.passed
    assert res.statistic > 1e4


def test_chi_square_insufficient(fig1):
    with pytest.raises(InsufficientSamples):
        chi_square_uniformity([2, 3, 4])


@pytest.mark.parametrize("counts, statistic, dof, pvalue", [
    # 1 dof: P(X >= x) = erfc(sqrt(x / 2)); 2 dof: P(X >= x) = exp(-x / 2)
    ([60, 40], 4.0, 1, math.erfc(math.sqrt(2.0))),
    ([70, 50, 30], 16.0, 2, math.exp(-8.0)),
])
def test_chi_square_closed_form_pvalues(counts, statistic, dof, pvalue):
    res = chi_square_uniformity(counts, significance=0.001)
    assert res.statistic == statistic and res.dof == dof
    assert res.pvalue == pytest.approx(pvalue, rel=1e-12)
    assert res.passed == (pvalue >= 0.001)
