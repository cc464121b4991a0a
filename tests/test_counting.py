import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

from tracegen import (
    MobiusPolynomial,
    expected_size,
    optimal_boltzmann_parameter,
    principal_root,
)
from tracegen.counting import mobius_polynomial
from tracegen.errors import NoRootFound, ParameterOutOfRange
from tracegen.oracle import enumerate_Mk

from conftest import independence_graphs, make_bundle


def test_mobius_fig1(fig1):
    assert fig1.mu.coefficients == (1, -3, 1)


@settings(max_examples=100, deadline=None)
@given(independence_graphs())
def test_reducible_mu_is_the_product_of_its_components(graph):
    # built from the components alone, mu equals the alternating count of the
    # product's own cliques, and its absolute coefficients sum to their number
    bundle = make_bundle(*graph)
    assume(not bundle.irreducible)
    assert bundle.mu == mobius_polynomial(bundle.family)
    assert sum(map(abs, bundle.mu.coefficients)) == len(bundle.family)


def test_mobius_free_monoids(free1, free2, free3):
    assert free1.mu.coefficients == (1, -1)
    assert free2.mu.coefficients == (1, -2)
    assert free3.mu.coefficients == (1, -3)


def test_mobius_other_monoids(path4, cycle5, tri4):
    assert path4.mu.coefficients == (1, -4, 3)
    assert cycle5.mu.coefficients == (1, -5, 5)
    assert tri4.mu.coefficients == (1, -4, 3, -1)


def test_mobius_product_of_components(prod32):
    assert prod32.mu.coefficients == (1, -5, 6)  # (1-3X)(1-2X)
    comps = prod32.components
    conv = [0] * 3
    for i, ci in enumerate(comps[0].mu.coefficients):
        for j, cj in enumerate(comps[1].mu.coefficients):
            conv[i + j] += ci * cj
    assert tuple(conv) == prod32.mu.coefficients


def test_growth_fig1(fig1):
    assert fig1.growth(8)[:9] == (1, 3, 8, 21, 55, 144, 377, 987, 2584)


def test_lambda_k_negative(fig1):
    # a negative index must not wrap to the end of the growth table
    with pytest.raises(ParameterOutOfRange):
        fig1.lambda_k(-1)
    with pytest.raises(ParameterOutOfRange):
        fig1.growth(-1)


def test_lambda_k_holds_a_window_of_counts(fig1, prod32):
    # count, estimate and the exact-k header print lambda_k alone, so the
    # recurrence keeps the last deg mu counts; the table of growth(20 000)
    # on fig1 holds 36 MiB of big integers
    for bundle in (fig1, prod32):
        assert [bundle.lambda_k(k) for k in range(60)] == list(bundle.growth(59))
    tracemalloc.start()
    try:
        lam = fig1.lambda_k(20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lam.bit_length() == 27_770
    assert peak < 1 << 20


def test_growth_free2(free2):
    assert all(free2.growth(12)[k] == 2 ** k for k in range(13))


def test_growth_prod32_convolution(prod32):
    table = prod32.growth(6)
    assert table[2] == 19  # 9 + 6 + 4
    for n in range(7):
        assert table[n] == sum(3 ** i * 2 ** (n - i) for i in range(n + 1))


def test_growth_convolution_identity(irreducible_five, prod32):
    for bundle in list(irreducible_five) + [prod32]:
        mu = bundle.mu.coefficients
        lam = bundle.growth(12)
        for n in range(1, 13):
            acc = sum(mu[j] * lam[n - j] for j in range(min(len(mu), n + 1)))
            assert acc == 0
        assert lam[0] == 1 and bundle.mu.coefficients[1] == -lam[1]
        assert all(v > 0 for v in lam)


def test_growth_matches_enumeration(irreducible_five, prod32):
    for bundle in list(irreducible_five) + [prod32]:
        lam = bundle.growth(6)
        for k in range(7):
            assert len(enumerate_Mk(bundle.family, k)) == lam[k]


def test_principal_root_fig1(fig1):
    assert abs(fig1.p0 - (3 - math.sqrt(5)) / 2) < 1e-14


def test_principal_root_free(free1, free2, free3):
    assert free1.p0 == 1.0
    assert abs(free2.p0 - 0.5) < 1e-14
    assert abs(free3.p0 - 1 / 3) < 1e-14


def test_principal_root_product_is_min(prod32):
    roots = [cb.p0 for cb in prod32.components]
    assert abs(prod32.p0 - min(roots)) < 1e-12
    assert abs(prod32.p0 - 1 / 3) < 1e-12


def test_root_residual_small(irreducible_five, prod32):
    for bundle in list(irreducible_five) + [prod32]:
        assert abs(bundle.mu(bundle.p0)) <= 1e-12


def test_growth_asymptotics(irreducible_five):
    # counts grow like p0^{-k}: consecutive normalized terms settle within 5%
    for bundle in irreducible_five:
        lam = bundle.growth(31)
        a = float(lam[30]) * bundle.p0 ** 30
        b = float(lam[31]) * bundle.p0 ** 31
        assert abs(a - b) / a < 0.05


def test_expected_size_examples(fig1, free2):
    assert abs(expected_size(free2.mu, 0.25, free2.p0) - 1.0) < 1e-14
    assert abs(expected_size(fig1.mu, 0.2, fig1.p0) - 0.52 / 0.44) < 1e-14
    assert expected_size(fig1.mu, 1e-9, fig1.p0) < 1e-8  # vanishes toward 0


def test_expected_size_monotone_grid(irreducible_five):
    for bundle in irreducible_five:
        grid = [bundle.p0 * i / 40 for i in range(1, 40)]
        vals = [expected_size(bundle.mu, p, bundle.p0) for p in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_expected_size_out_of_range(fig1):
    with pytest.raises(ParameterOutOfRange):
        expected_size(fig1.mu, 0.0, fig1.p0)
    with pytest.raises(ParameterOutOfRange):
        expected_size(fig1.mu, fig1.p0, fig1.p0)
    with pytest.raises(ParameterOutOfRange):
        expected_size(fig1.mu, 0.9, fig1.p0)


def test_optimal_parameter_free2():
    mu = MobiusPolynomial((1, -2))
    p = optimal_boltzmann_parameter(mu, 1, principal_root(mu))
    assert abs(p - 0.25) < 1e-9


def test_optimal_parameter_fig1_k5(fig1):
    # k mu + p mu' = 0 at k=5 reads 7p^2 - 18p + 5 = 0
    closed = (18 - math.sqrt(184)) / 14
    p = fig1.optimal_parameter(5)
    assert abs(p - closed) < 1e-8
    assert abs(expected_size(fig1.mu, p, fig1.p0) - 5) <= 5e-9
    assert 0 < p < fig1.p0


def test_optimal_parameter_approaches_root(free2):
    p = optimal_boltzmann_parameter(free2.mu, 10_000, free2.p0)
    assert free2.p0 * 0.999 < p < free2.p0


def test_optimal_parameter_past_the_last_double_below_p0(fig1):
    # the mean length one double below p0 is about 8e15: a larger k has no
    # representable parameter
    with pytest.raises(NoRootFound):
        fig1.optimal_parameter(10 ** 17)


def test_optimal_parameter_k_zero_rejected(fig1):
    with pytest.raises(ParameterOutOfRange):
        optimal_boltzmann_parameter(fig1.mu, 0, fig1.p0)


def test_no_root_found_guard():
    # handcrafted positive polynomial, unreachable from a real clique family
    with pytest.raises(NoRootFound):
        principal_root(MobiusPolynomial((1, 3)))


def test_multiple_root_is_found_per_component():
    # (1 - 3x)^2 touches 0 only at the non-dyadic 1/3, so no scan of its signs
    # finds it; a product's root is the least of its components' simple roots
    with pytest.raises(NoRootFound):
        principal_root(MobiusPolynomial((1, -6, 9)))
    free3x3 = make_bundle(list("abcdef"), [(a, b) for a in "abc" for b in "def"])
    assert free3x3.p0 == 1 / 3


def _exact_value(coeffs, x):
    """``sum_j coeffs[j] x^j`` at the double ``x``, as a ``Fraction``."""
    return sum(c * Fraction(x) ** j for j, c in enumerate(coeffs))


def _crosses_zero_at(coeffs, x):
    """The polynomial is > 0 one ulp below ``x`` and <= 0 one ulp above, in
    exact arithmetic: ``x`` is its root rounded to the nearest double."""
    return (_exact_value(coeffs, math.nextafter(x, 0.0)) > 0
            >= _exact_value(coeffs, math.nextafter(x, 2.0)))


@settings(max_examples=80, deadline=None)
@given(independence_graphs())
def test_roots_are_certified_to_one_ulp(graph):
    # every component's principal root and the size equation's root for
    # k = 1..60, the latter strictly inside (0, p0) even at a multiple root
    bundle = make_bundle(*graph)
    for cb in bundle.components:
        if cb.p0 < 1.0:
            assert _crosses_zero_at(cb.mu.coefficients, cb.p0)
    for k in range(1, 61):
        p = bundle.optimal_parameter(k)
        assert 0.0 < p < bundle.p0
        assert _crosses_zero_at([(k + j) * c for j, c in enumerate(bundle.mu.coefficients)], p)


def test_horner_evaluation(fig1):
    mu = fig1.mu
    for x in (0.0, 0.1, 0.38, 1.0):
        assert abs(mu(x) - (1 - 3 * x + x * x)) < 1e-15


@settings(max_examples=100, deadline=None)
@given(independence_graphs())
def test_polynomial_values_are_exact_sums_rounded_once(graph):
    # mu(p) and the mean size -p mu'(p) / mu(p) are the exact values at the
    # double p, rounded once, also near a product's multiple root
    bundle = make_bundle(*graph)
    for frac in (0.3, 0.9, 0.999):
        p = bundle.p0 * frac
        assert bundle.mu(p) == float(_exact_value(bundle.mu.coefficients, p))
        for cb in bundle.components:
            coeffs = cb.mu.coefficients
            pmu1 = _exact_value([j * c for j, c in enumerate(coeffs)], p)
            mean = -pmu1 / _exact_value(coeffs, p)
            assert expected_size(cb.mu, p, cb.p0) == float(mean)
