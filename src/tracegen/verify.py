"""Self-verification: recompute the chain identities and report deviations.

Every check is an equality the construction must satisfy: the initial law
sums to 1, transition rows sum to 1, path products telescope to the closed
cylinder form, the weighted incidence matrix has unit spectral radius and
fixes ``g``, its stochastic form matches the chain transitions, and product
monoids factorize layer laws across components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    cylinder_probability,
    h_vector,
    iter_admissible_chains,
    parry_matrices,
    path_probability,
)
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
    worst = 0.0
    for length in range(1, max_len + 1):
        for states in iter_admissible_chains(chain.family, length):
            if chain.at_p0 and 0 in states[:-1]:
                continue  # empty-clique row undefined at the root
            dev = abs(path_probability(chain, states) - cylinder_probability(chain, states))
            worst = max(worst, dev)
    return worst


def _product_factorization_deviation(bundle, p):
    """Worst gap between global layer laws and the product of component laws."""
    decomp = bundle.decomposition
    fam = bundle.family
    h_global = h_vector(fam, p)
    h_comp = [h_vector(cb.family, p) for cb in bundle.components]

    def component_h(ci, local_mask):
        return h_comp[ci][bundle.components[ci].family.index_of(local_mask)]

    worst = 0.0
    # one-layer events
    for idx, mask in enumerate(fam.masks):
        prod = 1.0
        for ci, local in enumerate(decomp.split_mask(mask)):
            prod *= component_h(ci, local)
        worst = max(worst, abs(h_global[idx] - prod))
    # two-layer events
    sizes = fam.sizes
    for c1, c2 in iter_admissible_chains(fam, 2):
        left = p ** int(sizes[c1]) * h_global[c2]
        prod = 1.0
        loc1 = decomp.split_mask(fam.masks[c1])
        loc2 = decomp.split_mask(fam.masks[c2])
        for ci in range(len(decomp)):
            prod *= p ** loc1[ci].bit_count() * component_h(ci, loc2[ci])
        worst = max(worst, abs(left - prod))
    return worst


def verification_report(bundle):
    """Run every applicable identity check on one monoid."""
    checks = []
    p0 = bundle.p0
    fam = bundle.family
    max_len = _chain_length_cap(len(fam))

    h_sum_dev = 0.0
    row_dev = 0.0
    cyl_dev = 0.0
    for frac in PARAM_GRID:
        p = p0 if frac == 1.0 else p0 * frac
        if frac == 1.0 and not bundle.irreducible:
            # a reducible monoid has no root chain (some rows degenerate);
            # its initial law still normalizes
            h_sum_dev = max(h_sum_dev, abs(float(h_vector(fam, p).sum()) - 1.0))
            continue
        ch = bundle.chain(p)
        h_sum_dev = max(h_sum_dev, abs(float(ch.h.sum()) - 1.0))
        start = 1 if ch.at_p0 else 0
        row_sums = ch.P[start:].sum(axis=1)
        row_dev = max(row_dev, float(np.abs(row_sums - 1.0).max()))
        cyl_dev = max(cyl_dev, _cylinder_deviation(ch, max_len))
    checks.append(_dev_check("h_sum_max_dev", h_sum_dev, VERIFY_IDENTITY_TOL))
    checks.append(_dev_check("row_sum_max_dev", row_dev, VERIFY_IDENTITY_TOL))
    checks.append(_dev_check("cylinder_max_dev", cyl_dev, VERIFY_IDENTITY_TOL))

    if bundle.irreducible:
        boundary = bundle.boundary_chain()
        h_min = float(boundary.h[1:].min())
        checks.append(Check("h_min_nonempty_at_root", h_min, 0.0, h_min > 0.0))
        pp = parry_matrices(fam, p0, boundary.h, boundary.g)
        checks.append(Check(
            "parry_spectral_radius", pp.spectral_radius, VERIFY_SPECTRAL_TOL,
            abs(pp.spectral_radius - 1.0) <= VERIFY_SPECTRAL_TOL,
        ))
        bg_dev = float(np.abs(pp.B @ pp.g - pp.g).max())
        checks.append(_dev_check("parry_Bg_dev", bg_dev, VERIFY_IDENTITY_TOL))
        cp_dev = float(np.abs(pp.C - boundary.P[1:, 1:]).max())
        checks.append(_dev_check("parry_CP_dev", cp_dev, VERIFY_IDENTITY_TOL))
    else:
        for frac in (0.5, 1.0):
            p = p0 if frac == 1.0 else p0 * frac
            dev = _product_factorization_deviation(bundle, p)
            checks.append(_dev_check(f"product_factorization_dev_p{frac}", dev, VERIFY_PRODUCT_TOL))
    return checks
