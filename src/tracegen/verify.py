"""Self-verification: recompute the chain identities and report deviations.

Every check is an equality the construction must satisfy: the initial law
sums to 1, transition rows sum to 1, path products telescope to the closed
cylinder form, the weighted incidence matrix has unit spectral radius
(certified by min/max ``(Bg)/g``) and fixes ``g``, its stochastic form
matches the chain transitions, and product monoids factorize layer laws
across components.  Cliques of one follow class share their rows, so each
matrix is read one row per class and no dense transition matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import chain_law, class_rows, h_vector, parry_matrices
from .counting import VERIFY_IDENTITY_TOL, VERIFY_PRODUCT_TOL, VERIFY_SPECTRAL_TOL

PARAM_GRID = (0.25, 0.5, 0.75, 1.0)   # fractions of the principal root


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float
    ok: bool


def _dev_check(name, value, tolerance):
    return Check(name, float(value), tolerance, bool(abs(value) <= tolerance))


def _chain_length_cap(n_states):
    if n_states <= 16:
        return 4
    if n_states <= 40:
        return 3
    return 2


def _cylinder_deviation(chain, max_len):
    """Worst gap between path products and the closed cylinder form.

    Every admissible path of length 1 to ``max_len`` grows one layer at a
    time along the admissibility matrix, carrying its last state, its product
    ``h(s0) P(s0, s1) ...`` and its letter count below the last layer.  Both
    sides are formed in the order ``oracle.path_probability`` and
    ``oracle.cylinder_probability`` use, so they match those bit for bit.
    """
    fam = chain.family
    # p ** int once per prefix size, as cylinder_probability computes it
    powers = np.array([chain.p ** k for k in range((max_len - 1) * fam.max_clique_size + 1)])
    last = np.arange(len(fam))
    prod = chain.h
    prefix = np.zeros(len(fam), dtype=np.int64)
    worst = 0.0
    for length in range(1, max_len + 1):
        dev = np.abs(prod - powers[prefix] * chain.h[last])
        worst = float(np.max(dev, initial=worst))
        if length == max_len:
            break
        src, nxt = np.nonzero(fam.admissibility[last])
        prev = last[src]
        # P(prev, nxt) is h(nxt)/g(prev) on an edge, and 1 on the empty clique's row
        step = np.divide(chain.h[nxt], chain.g[prev], out=np.ones(len(nxt)), where=prev > 0)
        prod = prod[src] * step
        prefix = prefix[src] + fam.sizes[prev]
        last = nxt
    return worst


def _product_factorization_deviation(bundle, p):
    """Worst gap between global layer laws and the product of component laws.

    One-layer events compare ``h(c)`` with the product of the component
    ``h``; two-layer events compare ``p^{|c1|} h(c2)`` over every admissible
    pair with the product of the component terms, multiplied in component
    order.
    """
    fam = bundle.family
    h_global = h_vector(fam, p)
    powers = np.array([p ** k for k in range(fam.max_clique_size + 1)])
    c1, c2 = np.nonzero(fam.admissibility)
    one = np.ones(len(fam))
    two = np.ones(len(c1))
    for cb in bundle.components:
        index = np.array([cb.family.index_of(m & cb.alphabet) for m in fam.masks])
        h_c = h_vector(cb.family, p)
        one = one * h_c[index]
        two = two * (powers[cb.family.sizes[index[c1]]] * h_c[index[c2]])
    one_dev = np.abs(h_global - one).max()
    two_dev = np.abs(powers[fam.sizes[c1]] * h_global[c2] - two).max()
    return float(max(one_dev, two_dev))


def verification_report(bundle):
    """Run every applicable identity check on one monoid."""
    checks = []
    p0 = bundle.p0
    fam = bundle.family
    max_len = _chain_length_cap(len(fam))

    first, _ = class_rows(fam)   # one transition row per follow class
    h_sum_dev = 0.0
    row_dev = 0.0
    cyl_dev = 0.0
    for frac in PARAM_GRID:
        p = p0 * frac
        if frac == 1.0 and not bundle.irreducible:
            # a reducible monoid has no root chain (some rows degenerate);
            # its initial law still normalizes
            h_sum_dev = max(h_sum_dev, abs(float(h_vector(fam, p).sum()) - 1.0))
            continue
        # the law alone: no check reads the sampling CDF
        law = chain_law(fam, p, p0)
        P = np.where(fam.admissibility[first], law.h, 0.0) / law.g[first, None]
        h_sum_dev = max(h_sum_dev, abs(float(law.h.sum()) - 1.0))
        row_dev = max(row_dev, float(np.abs(P.sum(axis=1) - 1.0).max()))
        cyl_dev = max(cyl_dev, _cylinder_deviation(law, max_len))
        if frac == 1.0:
            boundary, boundary_P = law, P
    checks.append(_dev_check("h_sum_max_dev", h_sum_dev, VERIFY_IDENTITY_TOL))
    checks.append(_dev_check("row_sum_max_dev", row_dev, VERIFY_IDENTITY_TOL))
    checks.append(_dev_check("cylinder_max_dev", cyl_dev, VERIFY_IDENTITY_TOL))

    if bundle.irreducible:
        h_min = float(boundary.h[1:].min())
        checks.append(Check("h_min_nonempty_at_root", h_min, 0.0, h_min > 0.0))
        pp = parry_matrices(fam, p0, boundary.h, boundary.g)
        checks.append(Check(
            "parry_spectral_radius", pp.spectral_radius, VERIFY_SPECTRAL_TOL,
            abs(pp.spectral_radius - 1.0) <= VERIFY_SPECTRAL_TOL,
        ))
        bg_dev = float(np.abs(pp.Bg - pp.g).max())
        checks.append(_dev_check("parry_Bg_dev", bg_dev, VERIFY_IDENTITY_TOL))
        cp_dev = float(np.abs(pp.C - boundary_P[:, 1:]).max())
        checks.append(_dev_check("parry_CP_dev", cp_dev, VERIFY_IDENTITY_TOL))
    else:
        for frac in (0.5, 1.0):
            p = p0 * frac
            dev = _product_factorization_deviation(bundle, p)
            checks.append(_dev_check(f"product_factorization_dev_p{frac}", dev, VERIFY_PRODUCT_TOL))
    return checks
