"""Self-verification: recompute the chain identities and report deviations.

Every check is an equality the construction must satisfy: the initial law
sums to 1, transition rows sum to 1, path products telescope to the closed
cylinder form, the weighted incidence matrix has unit spectral radius
(certified by min/max ``(Bg)/g``) and fixes ``g``, its stochastic form
matches the chain transitions, and product monoids factorize layer laws
across components.  A path's values depend on its first clique only through
its ``follow_classes`` (class, size) node, or the tuple of its parts' nodes
for the factorization, so paths start from one clique per node and step
along the family's compressed follow rows themselves.  The chains at every
grid parameter share one walk (``_walk``), whose first step reads each
start's row: one transition row per follow class or more, where the row sums
and, at the root, the Parry matrices (``parry_matrices``) are read too.

No n x n or classes x n array is formed, nor anything as long as the follow
relation but the relation itself: the walks start from blocks of cliques
whose first steps fit ``monoid._BLOCK`` entries (``monoid.row_blocks``), one
clique where its row is longer.  A row is never split, so its sum is formed
as from the whole array, and each check is a maximum, which no order or
repeat changes: the report is the same at any block size.
"""

from __future__ import annotations

from collections import defaultdict
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
    """Weighted incidence matrix ``B`` of the non-empty cliques and its stochastic form
    ``C``, as entries on the follow edges of a block of start cliques (``_follow_edges``;
    0 on the empty clique).  ``Bg`` holds one value per start clique, and ``bounds`` are
    the least and the greatest ``(Bg)/g`` over them."""

    B: np.ndarray
    C: np.ndarray
    Bg: np.ndarray
    bounds: tuple

    @property
    def spectral_radius(self):
        return _farther_from_one(*self.bounds)


def _row_sums(entries, src, n_rows, skip=0):
    """Each of the ``n_rows`` rows of ``entries`` on the edges from ``src``
    (``_follow_edges``) summed pairwise over its own slice, past its first ``skip``."""
    at = np.searchsorted(src, np.arange(n_rows + 1)).tolist()
    return np.array([entries[lo + skip:hi].sum() for lo, hi in zip(at, at[1:])])


def parry_matrices(family, p0, g, starts):
    """``B`` and its stochastic form ``C`` at the root on the follow rows of the
    non-empty cliques ``starts`` (a block of ``_start_blocks``), for the root's
    positive ``g``.  ``B g`` is summed row by row past the empty clique, with no
    BLAS call, and ``spectral_radius`` is whichever Collatz-Wielandt bound
    ``min (Bg)/g <= rho(B) <= max (Bg)/g`` lies farther from 1.  A row depends
    on its clique only through its follow class, so starts from every class of
    the non-empty cliques bound ``rho`` of the whole ``B``.

    Only defined when the clique automaton is strongly connected, i.e. for
    irreducible monoids; reducible input is refused.
    """
    if len(decompose_components(family.pair, family.alphabet)) > 1:
        raise ReducibleMonoid(
            "the Parry construction needs an irreducible monoid; "
            "this one splits into several independent components"
        )
    src, nxt = _follow_edges(family.follow_classes, starts)
    B = np.append(0.0, p0 ** family.sizes[1:])[nxt]
    C = B * g[nxt]
    Bg = _row_sums(C, src, len(starts), skip=1)   # C is B g here
    C /= g[starts][src]
    ratio = Bg / g[starts]
    return ParryPair(B=B, C=C, Bg=Bg, bounds=(float(ratio.min()), float(ratio.max())))


def _walk(chains, max_len, root=None):
    """One walk of the follow rows for every chain of ``chains``: by check name,
    the worst deviation on each block (of each chain), and the ``parry_bounds`` of
    ``parry_matrices`` on each block for ``root``, the root chain among ``chains``
    (none if ``None``).

    A path's product ``h(s0) P(s0, s1) ...`` and its closed form ``p^{letters
    below the last layer} h(last)`` depend on each state only through ``h``,
    ``g`` and ``|c|``, so every admissible path of length 2 to ``max_len`` gives
    the values of one path from a non-empty clique of ``node_rep``.  A path of
    length 1 is its own closed form, and one from the empty clique stays there
    with ``P = 1``.  Both sides are formed in the order
    ``oracle.path_probability`` and ``oracle.cylinder_probability`` use, so
    they match those bit for bit.  Each step finds a block's follow edges once
    and runs the chains over them one after another; the first step's entries
    ``h(c')/g(c)`` are the start cliques' transition rows, one per follow class
    of the non-empty cliques or more, each summed over its own slice.
    """
    classes = chains[0].family.follow_classes
    # p ** int once per prefix size, as cylinder_probability computes it
    top = (max_len - 1) * chains[0].family.max_clique_size + 1
    powers = [np.array([ch.p ** k for k in range(top)]) for ch in chains]
    found = defaultdict(list)
    for block in _start_blocks(classes, classes.node_rep[1:]):
        _walk_block(chains, powers, max_len, block, root, found)
    return found


def _walk_block(chains, powers, max_len, block, root, found):
    """``_walk`` from the start cliques ``block``, into its ``found``.  The
    block's arrays die with the call, so none lies under the next block's, and
    the Parry step comes before the walk's, of which it leaves only ``C``."""
    fam = chains[0].family
    if root is not None:
        pp = parry_matrices(fam, root.p, root.g, block)
        found["parry_bounds"] += pp.bounds
        found["parry_Bg_dev"].append(float(np.abs(pp.Bg - root.g[block]).max()))
        parry_C = pp.C
        del pp
    last, prefix = block, np.zeros(len(block), dtype=np.int64)
    prods = [ch.h[block] for ch in chains]
    for length in range(2, max_len + 1):
        src, nxt = _follow_edges(fam.follow_classes, last)
        prev = last[src]
        prefix = prefix[src] + fam.sizes[prev]
        for i, (ch, power) in enumerate(zip(chains, powers)):
            # P(prev, nxt) is h(nxt)/g(prev) on an edge, and 1 on the empty clique's row
            step = np.divide(ch.h[nxt], ch.g[prev], out=np.ones(len(nxt)), where=prev > 0)
            if length == 2:
                sums = _row_sums(step, src, len(last))
                found["row_sum_max_dev"].append(float(np.abs(sums - 1.0).max()))
                if ch is root:
                    cp = np.subtract(parry_C, step, out=parry_C)   # 0 on the empty column
                    found["parry_CP_dev"].append(float(np.abs(cp, out=cp).max()))
            prod = np.multiply(prods[i][src], step, out=step)   # the step is read: reuse it
            dev = float(np.abs(prod - power[prefix] * ch.h[nxt]).max())
            found["cylinder_max_dev"].append(dev)
            prods[i] = prod if length < max_len else None   # the last ones are read
        last = nxt


def verification_report(bundle):
    """Run every applicable identity check on one monoid: the chains at every
    grid parameter on one walk of the follow rows (``_walk``)."""
    checks = []
    p0 = bundle.p0
    fam = bundle.family

    chains = []
    h_sum_dev = 0.0
    for frac in PARAM_GRID:
        p = p0 * frac
        if frac == 1.0 and not bundle.irreducible:
            # a reducible monoid has no root chain (some rows degenerate);
            # its initial law still normalizes
            h_sum_dev = max(h_sum_dev, abs(float(h_vector(fam, p).sum()) - 1.0))
            continue
        # h and g alone: no check reads the sampling CDF or P, so neither is formed
        chains.append(clique_chain(fam, p, p0))
        h_sum_dev = max(h_sum_dev, abs(float(chains[-1].h.sum()) - 1.0))
    root = chains[-1] if bundle.irreducible else None
    found = _walk(chains, _chain_length_cap(len(fam)), root)
    checks.append(_dev_check("h_sum_max_dev", h_sum_dev, VERIFY_IDENTITY_TOL))
    for name in ("row_sum_max_dev", "cylinder_max_dev"):
        checks.append(_dev_check(name, max(found[name]), VERIFY_IDENTITY_TOL))

    if bundle.irreducible:
        h_min = float(root.h[1:].min())
        checks.append(Check("h_min_nonempty_at_root", h_min, 0.0, h_min > 0.0))
        rho = _farther_from_one(min(found["parry_bounds"]), max(found["parry_bounds"]))
        checks.append(Check(
            "parry_spectral_radius", rho, VERIFY_SPECTRAL_TOL,
            abs(rho - 1.0) <= VERIFY_SPECTRAL_TOL,
        ))
        for name in ("parry_Bg_dev", "parry_CP_dev"):
            checks.append(_dev_check(name, max(found[name]), VERIFY_IDENTITY_TOL))
    else:
        nodes = _product_nodes(bundle)
        for frac in (0.5, 1.0):
            p = p0 * frac
            dev = _product_factorization_deviation(bundle, p, nodes)
            checks.append(_dev_check(f"product_factorization_dev_p{frac}", dev, VERIFY_PRODUCT_TOL))
    return checks
