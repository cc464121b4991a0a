"""Convenience wrapper tying one monoid's derived data together.

Everything downstream (samplers, estimators, the CLI) needs the same handful
of objects: clique family, clique polynomial, principal root, component
decomposition, one clique chain.  The bundle computes each lazily and caches
it, and hands out one sub-bundle per irreducible component.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import clique_chain
from .counting import (
    growth_coefficients,
    mobius_polynomial,
    optimal_boltzmann_parameter,
    principal_root,
)
from .errors import ParameterOutOfRange
from .monoid import DEFAULT_CLIQUE_CAP, decompose_components, enumerate_cliques, load_monoid


class MonoidBundle:
    def __init__(self, pair, clique_cap=DEFAULT_CLIQUE_CAP):
        self.pair = pair
        self.clique_cap = clique_cap
        self._family = None
        self._mu = None
        self._p0 = None
        self._decomposition = None
        self._components = None
        self._component_masks = None
        self._component_mask_lists = None
        self._growth = None
        self._chain = None
        self._optimal = {}

    @classmethod
    def from_file(cls, path, clique_cap=DEFAULT_CLIQUE_CAP):
        return cls(load_monoid(path), clique_cap=clique_cap)

    @property
    def family(self):
        if self._family is None:
            self._family = enumerate_cliques(self.pair, cap=self.clique_cap)
        return self._family

    @property
    def mu(self):
        if self._mu is None:
            self._mu = mobius_polynomial(self.family)
        return self._mu

    @property
    def p0(self):
        if self._p0 is None:
            # a reducible mu can have a multiple root (equal component roots) that
            # defeats sign-based scanning, so only component polynomials are scanned
            self._p0 = min(principal_root(cb.mu) for cb in self.components)
        return self._p0

    @property
    def decomposition(self):
        if self._decomposition is None:
            self._decomposition = decompose_components(self.pair)
        return self._decomposition

    @property
    def irreducible(self):
        return self.decomposition.irreducible

    @property
    def components(self):
        """One sub-bundle per irreducible component, in first-letter order."""
        if self._components is None:
            comps = self.decomposition.components
            if len(comps) == 1 and comps[0] == self.pair:
                self._components = [self]
            else:
                self._components = [
                    MonoidBundle(comp, clique_cap=self.clique_cap) for comp in comps
                ]
        return self._components

    @property
    def component_masks(self):
        """Per component: the global clique mask of each component clique (uint64)."""
        if self._component_masks is None:
            decomp = self.decomposition
            self._component_masks = [
                np.array([decomp.to_global_mask(ci, m) for m in cb.family.masks], dtype=np.uint64)
                for ci, cb in enumerate(self.components)
            ]
        return self._component_masks

    @property
    def component_mask_lists(self):
        """``component_masks`` as lists of Python ints, for scalar walks."""
        if self._component_mask_lists is None:
            self._component_mask_lists = [t.tolist() for t in self.component_masks]
        return self._component_mask_lists

    def growth(self, n):
        if self._growth is None or len(self._growth) <= n:
            self._growth = growth_coefficients(self.mu, max(n, 16))
        return self._growth

    def lambda_k(self, k):
        if k < 0:
            raise ParameterOutOfRange(f"trace length must be non-negative, got {k}")
        return self.growth(k)[k]

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
        if k not in self._optimal:
            self._optimal[k] = optimal_boltzmann_parameter(self.mu, k, self.p0)
        return self._optimal[k]

    def expected_acceptance(self, k, p):
        """Probability that a parameter-``p`` draw has length exactly ``k``."""
        lam = self.lambda_k(k)
        return math.exp(math.log(lam) + k * math.log(p) + math.log(self.mu(p)))
