"""The layer process: a Markov chain over cliques drives every sampler.

Weight each trace x by p^{length of x}.  Normalized, this is a probability
law; its layer sequence turns out to be a Markov chain whose initial vector
h and transition matrix P have closed forms in p.  Below the principal root
the empty layer absorbs (traces are finite); at the root it is unreachable
(the law lives on infinite layer sequences) and the transition matrix
coincides with the classical maximal-entropy chain of the weighted clique
automaton, though the initial laws differ.
"""

import numpy as np

from tracegen import (
    MonoidBundle,
    parry_matrices,
    validate_independence,
)

pair = validate_independence(["a", "b", "c"], [("a", "b")], symmetric_closure=True)
bundle = MonoidBundle(pair)
fam = bundle.family
names = ["".join(pair.letters_of_mask(m)) or "-" for m in fam.masks]

for p in (0.2, bundle.p0):
    ch = bundle.chain(p)
    tag = "at the root" if ch.at_p0 else "below the root"
    print(f"parameter p = {p:.6f} ({tag})")
    print("  initial law h:", {n: round(float(v), 6) for n, v in zip(names, ch.h)})
    print("  h sums to:", float(ch.h.sum()))
    print("  transition row sums:", np.round(ch.P.sum(axis=1), 12))
    print()

# path probabilities telescope: h(c1) P(c1,c2) ... equals
# p^{letters below the top layer} * h(top layer)
ch = bundle.chain(0.25)
i_a, i_c, i_ab = fam.index_of(0b001), fam.index_of(0b100), fam.index_of(0b011)
path = float(ch.h[i_a] * ch.P[i_a, i_c] * ch.P[i_c, i_ab])
closed = 0.25 ** 2 * float(ch.h[i_ab])
print("path a -> c -> ab:", path, " closed form:", closed)

# at the root, the chain restricted to non-empty cliques is the classical
# weighted-automaton chain: same transitions, different start
boundary = bundle.boundary_chain()
pp = parry_matrices(fam, bundle.p0, boundary.g, np.arange(1, len(fam)))
print("\nspectral radius of the weighted incidence matrix:", pp.spectral_radius)
# C holds each non-empty clique's row as entries on the cliques that may
# follow it (the empty clique first), in the order of the admissible pairs
C = np.zeros((len(fam) - 1, len(fam)))
C[fam.admissibility[1:]] = pp.C
C = C[:, 1:]
print("max |C - P| over non-empty cliques:", float(np.abs(C - boundary.P[1:, 1:]).max()))
stationary = np.linalg.matrix_power(C, 200)[0]
print("chain start h:", np.round(boundary.h[1:], 6))
print("stationary law:", np.round(stationary, 6), "(the two differ: the law is not stationary)")
