"""Counting traces exactly: cliques, the clique polynomial, and growth.

A trace monoid is a free monoid where some letter pairs are allowed to
commute.  Here the alphabet is {a, b, c} and only a, b commute: words like
"acab" and "acba" are two spellings of the same element.  Counting elements
by length never needs to touch words at all: the alternating clique-size
polynomial of the commutation graph inverts the counting series, so counts
satisfy a short linear recurrence.
"""

from tracegen import MonoidBundle, validate_independence

pair = validate_independence(["a", "b", "c"], [("a", "b")], symmetric_closure=True)
bundle = MonoidBundle(pair)

print("alphabet:", pair.letters)
print("cliques (commuting letter sets):")
for mask in bundle.family.masks:
    print("   ", pair.letters_of_mask(mask) or "(empty)")

# alternating count of cliques by size: 1 empty, 3 singletons, 1 pair
print("clique polynomial coefficients:", bundle.mu.coefficients)

# counts by length satisfy lam(n) = 3 lam(n-1) - lam(n-2)
table = bundle.growth(12)
print("trace counts by length:", list(table))

# the smallest positive root of the polynomial is the reciprocal growth rate
print("principal root:", bundle.p0)
print("growth rate 1/p0:", 1 / bundle.p0)
print("count ratio lambda(11)/lambda(12):", table[11] / table[12])

# a monoid whose commutation graph is complete bipartite is a direct product;
# its polynomial is the product of the factor polynomials
prod = MonoidBundle(validate_independence(
    ["a1", "a2", "a3", "b1", "b2"],
    [(a, b) for a in ("a1", "a2", "a3") for b in ("b1", "b2")],
    symmetric_closure=True,
))
print()
# each component is a letter mask over the one alphabet
print("product monoid components:", [prod.pair.letters_of_mask(cb.alphabet) for cb in prod.components])
print("product polynomial:", prod.mu.coefficients, "= (1-3X)(1-2X)")
print("component roots:", [cb.p0 for cb in prod.components])
print("global root = min of component roots:", prod.p0)
