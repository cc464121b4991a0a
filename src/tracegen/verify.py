"""Self-verification: recompute the chain identities and report deviations.

Every check is an equality the construction must satisfy: the initial law
sums to 1, transition rows sum to 1, path products telescope to the closed
cylinder form, the weighted incidence matrix has unit spectral radius
(certified by min/max ``(Bg)/g``) and fixes ``g``, its stochastic form
matches the chain transitions, and product monoids factorize layer laws
across components.  Cliques of one follow class share their rows, so the
transition rows and the Parry matrices hold one row per class, as entries
on the family's compressed follow rows (``class_rows``).  A path's values
depend on its first clique only through its ``follow_classes`` (class, size)
node, or the tuple of its parts' nodes for the factorization, so paths start
from one clique per node and step along the follow rows themselves.  No
n x n or classes x n array is formed.

Nothing as long as the follow relation is formed either, but the relation
itself: every check reads it in blocks of whole rows of at most
``monoid._BLOCK`` entries (``monoid.row_blocks``), the transition rows and the
Parry entries a block of class rows at a time, the paths from a block of start
cliques whose first steps fit a block.  A row is never split, so its sum is
formed as from the whole array, and each check is a maximum, which no order
or repeat changes: the report is the same at any block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import clique_chain, h_vector
from .counting import VERIFY_IDENTITY_TOL, VERIFY_PRODUCT_TOL, VERIFY_SPECTRAL_TOL
from .errors import ReducibleMonoid
from .monoid import decompose_components, row_blocks

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


def _follow_edges(classes, cliques):
    """``(i, j)``: each edge from clique ``cliques[i]`` to a clique ``j`` of its
    follow row in ``classes`` (``follow_classes``)."""
    rows = classes.class_of[cliques]
    begin, counts = classes.offsets[rows], classes.offsets[rows + 1] - classes.offsets[rows]
    src = np.repeat(np.arange(len(cliques)), counts)   # row i's edges follow those of rows < i
    return src, classes.columns[np.arange(len(src)) + (begin + counts - counts.cumsum())[src]]


def _start_blocks(classes, starts):
    """The cliques ``starts`` in runs whose first steps fit a block (``row_blocks``):
    one clique where its own follow row does not."""
    rows = classes.class_of[starts]
    ends = np.append(0, (classes.offsets[rows + 1] - classes.offsets[rows]).cumsum())
    for lo, hi in row_blocks(ends):
        yield starts[lo:hi]


def _product_nodes(bundle):
    """One start clique per tuple of each component's (follow class, size) node
    of a clique's part in it, and each component's part of every clique, as an
    index into the component's family.  The parts' follow sets OR to the
    clique's, so the tuple determines its follow class and its size."""
    fam = bundle.family
    key = np.zeros(len(fam), dtype=np.int64)
    parts = []
    for cb in bundle.components:
        cf = cb.family
        parts.append(np.array([cf.index_of(m & cb.alphabet) for m in fam.masks]))
        nodes = cf.follow_classes
        _, starts, key = np.unique(key * len(nodes.node_rep) + nodes.node_of[parts[-1]],
                                   return_index=True, return_inverse=True)
    return starts, parts


def _cylinder_deviation(chain, max_len):
    """Worst gap between path products and the closed cylinder form.

    A path's product and its closed form depend on each state only through
    ``h``, ``g`` and ``|c|``, which depend on a clique only through its
    (class, size) node of ``follow_classes``, so paths start from one clique
    per node (``node_rep``) and step to every clique of the last one's follow
    row: every admissible path of length 1 to ``max_len`` gives the values of
    one path walked.  A path carries its last clique, its product
    ``h(s0) P(s0, s1) ...`` and its letter count below the last layer.  Both
    sides are formed in the order ``oracle.path_probability`` and
    ``oracle.cylinder_probability`` use, so they match those bit for bit.  The
    paths start from one block of cliques (``_start_blocks``) at a time.
    """
    fam = chain.family
    classes = fam.follow_classes
    # p ** int once per prefix size, as cylinder_probability computes it
    powers = np.array([chain.p ** k for k in range((max_len - 1) * fam.max_clique_size + 1)])
    worst = 0.0
    for last in _start_blocks(classes, classes.node_rep):
        prod = chain.h[last]
        prefix = np.zeros(len(last), dtype=np.int64)
        for length in range(1, max_len + 1):
            dev = np.abs(prod - powers[prefix] * chain.h[last])
            worst = float(np.max(dev, initial=worst))
            if length == max_len:
                break
            src, nxt = _follow_edges(classes, last)
            prev = last[src]
            # P(prev, nxt) is h(nxt)/g(prev) on an edge, and 1 on the empty clique's row
            step = np.divide(chain.h[nxt], chain.g[prev], out=np.ones(len(nxt)), where=prev > 0)
            prod = prod[src] * step
            prefix = prefix[src] + fam.sizes[prev]
            last = nxt
    return worst


def _product_factorization_deviation(bundle, p, nodes):
    """Worst gap between global layer laws and the product of component laws.

    One-layer events compare ``h(c)`` with the product of the component
    ``h``; two-layer events compare ``p^{|c1|} h(c2)`` over every admissible
    pair with the product of the component terms, multiplied in component
    order.  Both depend on ``c1`` only through its tuple of component nodes,
    so ``c1`` runs over the start cliques of ``nodes`` (``_product_nodes``), a
    block of them at a time, and ``c2`` over every clique of ``c1``'s follow row;
    each component reads its ``h`` at the parts ``nodes`` holds.
    """
    fam = bundle.family
    starts, parts = nodes
    classes = fam.follow_classes
    h_global = h_vector(fam, p)
    powers = np.array([p ** k for k in range(fam.max_clique_size + 1)])
    comps = [(cb.family.sizes, part, h_vector(cb.family, p))
             for cb, part in zip(bundle.components, parts)]
    one = np.ones(len(starts))
    for _, part, h_c in comps:
        one = one * h_c[part[starts]]
    worst = float(np.abs(h_global[starts] - one).max())
    for block in _start_blocks(classes, starts):
        src, c2 = _follow_edges(classes, block)
        c1 = block[src]
        two = np.ones(len(c1))
        for sizes, part, h_c in comps:
            two = two * (powers[sizes[part[c1]]] * h_c[part[c2]])
        left = powers[fam.sizes[c1]] * h_global[c2]
        worst = max(worst, float(np.abs(left - two).max()))
    return worst


def _farther_from_one(lo, hi):
    """Whichever Collatz-Wielandt bound ``lo <= rho(B) <= hi`` lies farther from 1."""
    return float(max(lo, hi, key=lambda r: abs(r - 1.0)))


@dataclass
class ParryPair:
    """Weighted incidence matrix ``B`` of the non-empty cliques and its stochastic form ``C``, as
    entries on ``class_rows`` (0 on the empty clique): clique ``i`` reads row ``rows[i - 1]``.
    ``bounds`` are the least and the greatest ``(Bg)/g`` over the rows."""

    B: np.ndarray
    C: np.ndarray
    rows: np.ndarray
    g: np.ndarray
    Bg: np.ndarray
    bounds: tuple

    @property
    def spectral_radius(self):
        return _farther_from_one(*self.bounds)


def class_rows(family):
    """The follow rows of the non-empty cliques' classes 1 to ``K'``: each one's first clique,
    offsets (a list), columns (a view of ``follow_classes.columns``), each clique's row."""
    classes = family.follow_classes
    first = classes.first[1:]
    first = first[first < len(family)]   # not the start's own class if it holds no clique
    at = classes.offsets[1:len(first) + 2]
    return first, (at - at[0]).tolist(), classes.columns[at[0]:at[-1]], classes.class_of[1:] - 1


def _row_block(rows, lo, hi):
    """Rows ``lo`` to ``hi`` of the follow rows ``rows`` (``class_rows``) in the same
    form, each row standing for itself: its ``rows`` entry is its own index."""
    first, offsets, columns, _ = rows
    at = offsets[lo:hi + 1]
    return first[lo:hi], [o - at[0] for o in at], columns[at[0]:at[-1]], np.arange(hi - lo)


def _transitions(chain, rows):
    """The transition entries ``h(c')/g(c)`` of ``chain`` on the follow rows ``rows``."""
    first, offsets, columns, _ = rows
    return chain.h[columns] / np.repeat(chain.g[first], np.diff(offsets))


def parry_matrices(family, p0, g, rows):
    """``B`` and its stochastic form ``C`` at the root, one row per follow class
    of ``rows`` (``class_rows``, or a block of it), for the root's positive ``g``.  ``B g`` is
    summed row by row past the empty clique, with no BLAS call, and ``spectral_radius`` is
    whichever Collatz-Wielandt bound ``min (Bg)/g <= rho(B) <= max (Bg)/g`` lies farther from 1.

    Only defined when the clique automaton is strongly connected, i.e. for
    irreducible monoids; reducible input is refused.
    """
    if len(decompose_components(family.pair, family.alphabet)) > 1:
        raise ReducibleMonoid(
            "the Parry construction needs an irreducible monoid; "
            "this one splits into several independent components"
        )
    first, offsets, columns, row_of = rows
    B = np.append(0.0, p0 ** family.sizes[1:])[columns]
    C = B * g[columns]
    Bg = np.array([C[lo + 1:hi].sum() for lo, hi in zip(offsets, offsets[1:])])   # C is B g here
    C /= np.repeat(g[first], np.diff(offsets))
    ratio = Bg / g[first]
    return ParryPair(B=B, C=C, rows=row_of, g=g[1:], Bg=Bg[row_of],
                     bounds=(float(ratio.min()), float(ratio.max())))


def verification_report(bundle):
    """Run every applicable identity check on one monoid, a block of follow rows
    (``row_blocks``) at a time."""
    checks = []
    p0 = bundle.p0
    fam = bundle.family
    max_len = _chain_length_cap(len(fam))

    rows = class_rows(fam)   # one transition row per follow class
    blocks = [_row_block(rows, lo, hi) for lo, hi in row_blocks(rows[1])]
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
        # h and g alone: no check reads the sampling CDF or P, so neither is formed
        chain = clique_chain(fam, p, p0)
        h_sum_dev = max(h_sum_dev, abs(float(chain.h.sum()) - 1.0))
        for block in blocks:
            P = _transitions(chain, block)
            offsets = block[1]
            sums = [P[lo:hi].sum() for lo, hi in zip(offsets, offsets[1:])]   # pairwise, row by row
            row_dev = max(row_dev, float(np.abs(np.array(sums) - 1.0).max()))
        cyl_dev = max(cyl_dev, _cylinder_deviation(chain, max_len))
        if frac == 1.0:
            boundary = chain
    checks.append(_dev_check("h_sum_max_dev", h_sum_dev, VERIFY_IDENTITY_TOL))
    checks.append(_dev_check("row_sum_max_dev", row_dev, VERIFY_IDENTITY_TOL))
    checks.append(_dev_check("cylinder_max_dev", cyl_dev, VERIFY_IDENTITY_TOL))

    if bundle.irreducible:
        h_min = float(boundary.h[1:].min())
        checks.append(Check("h_min_nonempty_at_root", h_min, 0.0, h_min > 0.0))
        # g is one value per class, so a row's Bg is checked against its first clique's g
        bounds, bg_dev, cp_dev = [], 0.0, 0.0
        for block in blocks:
            pp = parry_matrices(fam, p0, boundary.g, block)
            bounds += pp.bounds
            bg_dev = max(bg_dev, float(np.abs(pp.Bg - boundary.g[block[0]]).max()))
            cp = pp.C - _transitions(boundary, block)   # 0 on the empty column, where h is 0
            cp_dev = max(cp_dev, float(np.abs(cp, out=cp).max()))
        rho = _farther_from_one(min(bounds), max(bounds))
        checks.append(Check(
            "parry_spectral_radius", rho, VERIFY_SPECTRAL_TOL,
            abs(rho - 1.0) <= VERIFY_SPECTRAL_TOL,
        ))
        checks.append(_dev_check("parry_Bg_dev", bg_dev, VERIFY_IDENTITY_TOL))
        checks.append(_dev_check("parry_CP_dev", cp_dev, VERIFY_IDENTITY_TOL))
    else:
        nodes = _product_nodes(bundle)
        for frac in (0.5, 1.0):
            p = p0 * frac
            dev = _product_factorization_deviation(bundle, p, nodes)
            checks.append(_dev_check(f"product_factorization_dev_p{frac}", dev, VERIFY_PRODUCT_TOL))
    return checks
