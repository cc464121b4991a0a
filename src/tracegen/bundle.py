"""Convenience wrapper tying one monoid's derived data together.

Everything downstream (samplers, estimators, the CLI) needs the same handful
of objects: clique family, clique polynomial, principal root, irreducible
components, one clique chain.  The bundle computes each lazily, keeps those
that are read again, and hands out one sub-bundle per irreducible component:
the same pair restricted to the component's letter mask, so a component's
cliques, chain states and layers are global masks with no translation.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from itertools import islice
from operator import mul

from .chain import clique_chain
from .counting import (
    growth_coefficients,
    iter_growth,
    mobius_polynomial,
    optimal_boltzmann_parameter,
    principal_root,
)
from .errors import ParameterOutOfRange
from .monoid import DEFAULT_CLIQUE_CAP, decompose_components, enumerate_cliques, load_monoid


class MonoidBundle:
    """The monoid of ``pair`` restricted to the letter mask ``alphabet``
    (every letter by default)."""

    def __init__(self, pair, clique_cap=DEFAULT_CLIQUE_CAP, alphabet=None):
        self.pair = pair
        self.clique_cap = clique_cap
        self.alphabet = pair.full_mask if alphabet is None else alphabet
        self._chain = None

    @classmethod
    def from_file(cls, path, clique_cap=DEFAULT_CLIQUE_CAP):
        return cls(load_monoid(path), clique_cap=clique_cap)

    @cached_property
    def family(self):
        return enumerate_cliques(self.pair, cap=self.clique_cap, alphabet=self.alphabet)

    @cached_property
    def mu(self):
        if self.irreducible:
            return mobius_polynomial(self.family)
        # a clique of a product is one clique per component, so mu is the
        # product of theirs: the product's own cliques are not enumerated
        return reduce(mul, (cb.mu for cb in self.components))

    @cached_property
    def p0(self):
        if self.irreducible:
            return principal_root(self.mu)
        # a reducible mu can have a multiple root (equal component roots) that
        # defeats sign-based scanning, so only component polynomials are scanned
        return min(cb.p0 for cb in self.components)

    @property
    def irreducible(self):
        return len(self.components) == 1

    @cached_property
    def components(self):
        """One sub-bundle per irreducible component, in first-letter order."""
        comps = decompose_components(self.pair, self.alphabet)
        if len(comps) == 1:
            return [self]
        return [MonoidBundle(self.pair, self.clique_cap, comp) for comp in comps]

    def growth(self, n):
        """Trace counts by length, ``lambda(0..n)``."""
        return growth_coefficients(self.mu, n)

    def lambda_k(self, k):
        """``lambda(k)`` alone: the recurrence runs over a window of ``deg mu``
        counts, so the table of ``growth(k)`` is never held."""
        if k < 0:
            raise ParameterOutOfRange(f"trace length must be non-negative, got {k}")
        return next(islice(iter_growth(self.mu), k, None))

    def chain(self, p):
        """The clique chain at ``p``.  One chain is kept: the same ``p`` returns
        it, another ``p`` drops it before the new one is built."""
        p = float(p)
        if self._chain is None or self._chain.p != p:
            self._chain = None
            self._chain = clique_chain(self.family, p, self.p0)
        return self._chain

    def boundary_chain(self):
        return self.chain(self.p0)

    def optimal_parameter(self, k):
        return optimal_boltzmann_parameter(self.mu, k, self.p0)

    def expected_acceptance(self, k, p):
        """Probability that a parameter-``p`` draw has length exactly ``k``,
        ``lambda_k p^k mu(p)``: ``mu(p)`` is exact, the product is taken in logs."""
        lam = self.lambda_k(k)
        return math.exp(math.log(lam) + k * math.log(p) + math.log(self.mu(p)))
