"""Random generation: boundary prefixes, biased finite traces, exact uniform.

Exactly uniform generation at a fixed length works by rejection: under the
length-biased law every trace of one length is equally likely, so tuning the
parameter until the mean length hits the target and keeping only exact hits
yields the uniform law on that slice.
"""

import numpy as np

from tracegen import (
    MonoidBundle,
    RandomSource,
    sample_subuniform_trace,
    sample_uniform_traces,
    serialize_trace,
    topped_prefix_batch,
    validate_independence,
)
from tracegen.oracle import chi_square_uniformity, enumerate_Mk

pair = validate_independence(["a", "b", "c"], [("a", "b")], symmetric_closure=True)
bundle = MonoidBundle(pair)
rng = RandomSource(seed=2).generator()

print("five random infinite-trace prefixes (uniform law, first 6 layers):")
for prefix in topped_prefix_batch(bundle, 6, 5, rng):
    print("   ", [pair.letters_of_mask(int(m)) for m in prefix])

print("\nfinite traces under the length-biased law at p = 0.2:")
for _ in range(5):
    print("   ", serialize_trace(sample_subuniform_trace(bundle, 0.2, rng)) or "(empty)")

k = 5
p_star = bundle.optimal_parameter(k)
acceptance = bundle.expected_acceptance(k, p_star)
print(f"\nexact uniform sampling at length {k}:")
print(f"  tuned parameter: {p_star:.6f} (mean proposal length {k})")
print(f"  predicted acceptance rate: {acceptance:.4f}")

n = 20_000
traces, rejections = sample_uniform_traces(bundle, k, n, RandomSource(3).generator())
print(f"  drew {n} accepted samples, {rejections} rejections "
      f"(observed rate {n / (n + rejections):.4f})")

mk = enumerate_Mk(bundle.family, k)
counts = np.zeros(len(mk))
for t in traces:
    counts[mk.index[t]] += 1
res = chi_square_uniformity(counts, significance=0.001)
print(f"  uniformity chi-square over {len(mk)} traces: stat={res.statistic:.1f} "
      f"dof={res.dof} p-value={res.pvalue:.3f} -> {'pass' if res.passed else 'FAIL'}")
