"""Acceptance suite: every shipping criterion, one printed line each.

Statistical criteria run with fixed seeds so the suite is reproducible; the
4-standard-error windows and the 0.001 chi-square significance are part of
the criteria themselves.  Run with ``pytest -s`` to see the PASS lines.
"""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from tracegen import (
    RandomSource,
    Trace,
    builtin_cost,
    divides,
    estimate_expectation,
    h_vector,
    normalize_word,
    parry_matrices,
    phibar,
    sample_uniform_traces,
    topped_prefix_batch,
    trace_concat,
)
from tracegen.errors import ReducibleMonoid
from tracegen.oracle import (
    chi_square_uniformity,
    congruence_closure,
    enumerate_Mk,
    exact_uniform_expectation,
    iter_admissible_chains,
)

from conftest import dense_parry

SE = 4.0  # statistical window, in standard errors


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_c01_mobius_and_counting(fig1):
    assert fig1.mu.coefficients == (1, -3, 1)
    assert abs(fig1.p0 - (3 - math.sqrt(5)) / 2) <= 1e-12
    expected = (1, 3, 8, 21, 55, 144, 377, 987, 2584)
    lam = fig1.growth(8)
    assert lam[:9] == expected
    for k in range(9):
        assert len(enumerate_Mk(fig1.family, k)) == expected[k]
    report("criterion-01 mobius & counting",
           f"mu={fig1.mu.coefficients} p0={fig1.p0:.15f} lambda(0..8) exact")


def test_c02_chain_algebra(irreducible_five):
    worst_sum = worst_row = 0.0
    for bundle in irreducible_five:
        for frac in (0.25, 0.5, 0.75, 1.0):
            p = bundle.p0 if frac == 1.0 else bundle.p0 * frac
            ch = bundle.chain(p)
            worst_sum = max(worst_sum, abs(float(ch.h.sum()) - 1.0))
            worst_row = max(worst_row, float(np.abs(ch.P.sum(axis=1) - 1.0).max()))
            assert float(ch.h[1:].min()) > 0.0
            assert (ch.h[0] == 0.0) == ch.at_p0
            assert (frac == 1.0) == ch.at_p0
    assert worst_sum <= 1e-12 and worst_row <= 1e-12
    report("criterion-02 chain algebra",
           f"5 monoids x 4 params, h-sum dev {worst_sum:.2e}, row dev {worst_row:.2e}")


def test_c03_cylinder_consistency(irreducible_five):
    worst = 0.0
    for bundle in irreducible_five:
        sizes = bundle.family.sizes
        for frac in (0.25, 0.5, 0.75, 1.0):
            p = bundle.p0 if frac == 1.0 else bundle.p0 * frac
            ch = bundle.chain(p)
            for length in range(1, 5):
                for states in iter_admissible_chains(bundle.family, length):
                    path = float(ch.h[states[0]])
                    for a, b in zip(states, states[1:]):
                        path *= float(ch.P[a, b])
                    closed = p ** int(sum(sizes[s] for s in states[:-1]))
                    closed *= float(ch.h[states[-1]])
                    worst = max(worst, abs(path - closed))
    assert worst <= 1e-12
    report("criterion-03 cylinder consistency",
           f"chains to length 4, worst deviation {worst:.2e}")


def test_c04_parry_comparison(irreducible_five, prod32, prod22):
    worst_rho = worst_bg = worst_cp = 0.0
    for bundle in irreducible_five:
        ch = bundle.boundary_chain()
        # B and C as entries on the follow rows of every non-empty clique
        starts = np.arange(1, len(bundle.family))
        pp = parry_matrices(bundle.family, bundle.p0, ch.g, starts)
        worst_rho = max(worst_rho, abs(pp.spectral_radius - 1.0))
        B, C = dense_parry(bundle.family, starts, pp.B), dense_parry(bundle.family, starts, pp.C)
        worst_bg = max(worst_bg, float(np.abs(B @ ch.g[1:] - ch.g[1:]).max()))
        worst_cp = max(worst_cp, float(np.abs(C - ch.P[1:, 1:]).max()))
    assert worst_rho <= 1e-9 and worst_bg <= 1e-12 and worst_cp <= 1e-12
    for reducible in (prod32, prod22):
        h = h_vector(reducible.family, reducible.p0)
        with pytest.raises(ReducibleMonoid):
            parry_matrices(reducible.family, reducible.p0, h,
                           np.arange(1, len(reducible.family)))
    report("criterion-04 parry comparison",
           f"radius dev {worst_rho:.2e}, Bg dev {worst_bg:.2e}, C-P dev {worst_cp:.2e}; "
           "reducible input refused")


def _uniformity_run(bundle, k, seed):
    lam = bundle.lambda_k(k)
    n = 1000 * lam
    traces, rejections = sample_uniform_traces(
        bundle, k, n, RandomSource(seed).generator()
    )
    mk = enumerate_Mk(bundle.family, k)
    counts = np.zeros(len(mk))
    for t in traces:
        counts[mk.index[t]] += 1
    chi = chi_square_uniformity(counts, significance=0.001)
    assert chi.passed, f"k={k}: chi2={chi.statistic:.1f} p={chi.pvalue:.2e}"
    p = bundle.optimal_parameter(k)
    acc = bundle.expected_acceptance(k, p)
    observed = n / (n + rejections)
    se = acc * math.sqrt((1.0 - acc) / n)
    assert abs(observed - acc) <= SE * se
    return chi, acc, observed


def test_c05_exact_uniform_sampling(fig1):
    chi4, acc4, obs4 = _uniformity_run(fig1, 4, seed=2025)
    chi5, acc5, obs5 = _uniformity_run(fig1, 5, seed=2024)
    report("criterion-05 exact uniform sampling",
           f"k=4 chi2 p={chi4.pvalue:.3f} acc {obs4:.4f}~{acc4:.4f}; "
           f"k=5 chi2 p={chi5.pvalue:.3f} acc {obs5:.4f}~{acc5:.4f}")


def _lift_sum(bundle, k, phi):
    """Expectation of the lifted cost as an exact finite sum over chains."""
    fam = bundle.family
    sizes = fam.sizes
    h = h_vector(fam, bundle.p0)
    total = 0.0
    for states in iter_admissible_chains(fam, k):
        prob = bundle.p0 ** int(sum(sizes[s] for s in states[:-1]))
        prob *= float(h[states[-1]])
        if prob == 0.0:
            continue
        x = Trace(bundle.pair, tuple(fam.masks[s] for s in states if s != 0))
        total += prob * phibar(phi, x, k)
    return total


def test_c06_estimator(fig1, tri4, prod32):
    # (a) exact finite-sum form of the integration identity, k <= 3
    worst = 0.0
    height = builtin_cost("height")
    one = builtin_cost("one")
    for bundle in (fig1, tri4, prod32):
        for k in range(1, 4):
            scale = bundle.p0 ** k * bundle.lambda_k(k)
            worst = max(worst, abs(_lift_sum(bundle, k, one) - scale))
            want = scale * exact_uniform_expectation(bundle.family, k, height)
            worst = max(worst, abs(_lift_sum(bundle, k, height) - want))
    assert worst <= 1e-10
    # (b) Monte-Carlo estimate of the average height over length-5 traces
    rep = estimate_expectation(fig1, 5, height, 100_000, RandomSource(99).generator())
    exact = exact_uniform_expectation(fig1.family, 5, height)
    assert abs(rep.estimate - exact) <= SE * rep.standard_error
    # (c) Monte-Carlo count of length-6 traces
    rep6 = estimate_expectation(fig1, 6, one, 100_000, RandomSource(7).generator())
    assert abs(rep6.lambda_hat - 377) <= SE * rep6.lambda_hat_se
    report("criterion-06 estimator",
           f"finite-sum dev {worst:.2e}; height {rep.estimate:.4f}~{exact:.4f} "
           f"(se {rep.standard_error:.4f}); lambda6 {rep6.lambda_hat:.2f}~377 "
           f"(se {rep6.lambda_hat_se:.2f})")


def test_c07_product_decomposition(prod32):
    # empirical stop rate of the small factor at the root of the big one, read
    # off the b-letters of 48-layer prefixes: (2/3)^48 < 4e-9 of runs are cut
    n, k = 100_000, 48
    rows = topped_prefix_batch(prod32, k, n, RandomSource(21).generator())
    b_side = np.uint64(prod32.pair.mask_of_letters(["b1", "b2"]))
    heights = ((rows & b_side) != 0).sum(axis=1)
    assert heights.max() < k
    stop_rate = n / (int(heights.sum()) + n)
    se = (1 / 3) * math.sqrt((2 / 3) / n)
    assert abs(stop_rate - 1 / 3) <= SE * se
    # first-layer law factorizes exactly across components
    fam = prod32.family
    p = prod32.p0
    hg = h_vector(fam, p)
    hc = [h_vector(cb.family, p) for cb in prod32.components]
    worst = 0.0
    for idx, mask in enumerate(fam.masks):
        prod = 1.0
        for cb, h_c in zip(prod32.components, hc):
            prod *= h_c[cb.family.index_of(mask & cb.alphabet)]
        worst = max(worst, abs(hg[idx] - prod))
    assert worst <= 1e-10
    report("criterion-07 product decomposition",
           f"stop rate {stop_rate:.5f}~1/3; factorization dev {worst:.2e}")


def test_c08_weak_convergence_numeric(fig1):
    lam = fig1.growth(20)
    ratio = lam[18] / lam[20]
    dev = abs(ratio - fig1.p0 ** 2)
    assert dev < 1e-3
    report("criterion-08 weak convergence",
           f"lambda(18)/lambda(20) = {ratio:.12f}, p0^2 dev {dev:.2e}")


def test_c09_normal_form_soundness(fig1):
    pair = fig1.pair
    words = 0
    for n in range(7):
        for word in itertools.product(pair.letters, repeat=n):
            t = normalize_word(word, pair)
            for other in congruence_closure(word, pair):
                assert normalize_word(other, pair) == t
            words += 1
    traces = [t for k in range(6) for t in enumerate_Mk(fig1.family, k)]
    by_len = {k: list(enumerate_Mk(fig1.family, k)) for k in range(6)}
    checked = 0
    for u in traces:
        for v in traces:
            brute = u.length <= v.length and any(
                trace_concat(u, w) == v for w in by_len[v.length - u.length]
            )
            assert divides(u, v) == brute
            checked += 1
    report("criterion-09 normal form soundness",
           f"{words} words closed under swaps; divides checked on {checked} pairs")


def _cli(*args):
    res = subprocess.run(
        [sys.executable, "-m", "tracegen", *args],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_c10_determinism(monoid_files):
    fig1 = monoid_files["fig1"]
    invocations = [
        ("sample", "--monoid", fig1, "--mode", "exact-k", "--k", "5",
         "--n", "3", "--seed", "7"),
        ("sample", "--monoid", fig1, "--mode", "boundary", "--k", "4",
         "--n", "5", "--seed", "1"),
        ("sample", "--monoid", fig1, "--mode", "subuniform", "--p", "0.2",
         "--n", "8", "--seed", "3"),
        ("sample", "--monoid", fig1, "--mode", "exact-k", "--k", "4",
         "--n", "6", "--seed", "9", "--jobs", "2"),
        ("estimate", "--monoid", fig1, "--k", "4", "--phi", "height",
         "--n", "2000", "--seed", "3"),
    ]
    for args in invocations:
        assert _cli(*args) == _cli(*args)
    report("criterion-10 determinism",
           f"{len(invocations)} seeded invocations byte-identical on repeat")
