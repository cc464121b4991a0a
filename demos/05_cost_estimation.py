"""Estimating uniform averages without uniform sampling.

Rejection gets expensive as the target length grows, but averages over the
uniform law on length-k traces have a cheaper route: sample the first k
layers of the infinite-trace law, sum the cost over all length-k bottom
sub-heaps of the sample (the lifted cost), and normalize by the same lift of
the constant 1.  The normalizer also estimates the number of length-k traces.
"""

from tracegen import (
    MonoidBundle,
    RandomSource,
    builtin_cost,
    estimate_expectation,
    normalize_word,
    serialize_trace,
    theta_k,
    validate_independence,
)
from tracegen.oracle import exact_uniform_expectation, length_k_divisors

pair = validate_independence(["a", "b", "c"], [("a", "b")], symmetric_closure=True)
bundle = MonoidBundle(pair)

# the lift: all bottom sub-heaps of a fixed letter count
x = normalize_word("abab", pair)
print("trace:", serialize_trace(x))
print("its length-2 bottom sub-heaps:")
for y in length_k_divisors(bundle.family, x, 2):
    print("   ", serialize_trace(y))
print("count (theta):", theta_k(x, 2))

k, n = 5, 50_000
height = builtin_cost("height")
report = estimate_expectation(bundle, k, height, n, RandomSource(12).generator())
exact = exact_uniform_expectation(bundle.family, k, height)

print(f"\naverage height over all length-{k} traces:")
print(f"  Monte-Carlo ratio estimate: {report.estimate:.5f} +- {report.standard_error:.5f}")
print(f"  exact (exhaustive) value:   {exact:.5f}")
print(f"  count estimate from the same run: {report.lambda_hat:.2f} "
      f"+- {report.lambda_hat_se:.2f} (exact count {bundle.lambda_k(k)})")

# the same machinery prices cylinder events: the cost 'starts with u'
u_line = '[["a"],["c"]]'
phi = builtin_cost("prefix:" + u_line, pair)
rep2 = estimate_expectation(bundle, 4, phi, 50_000, RandomSource(9).generator())
exact2 = exact_uniform_expectation(bundle.family, 4, phi)
print(f"\nshare of length-4 traces starting with {u_line}:")
print(f"  estimated {rep2.estimate:.5f} +- {rep2.standard_error:.5f}, exact {exact2:.5f}")
