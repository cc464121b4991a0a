"""Self-verification: recompute the chain identities and report deviations.

Every check is an equality the construction must satisfy: the initial law
sums to 1, transition rows sum to 1, path products telescope to the closed
cylinder form, the weighted incidence matrix has unit spectral radius
(certified by min/max ``(Bg)/g``) and fixes ``g``, its stochastic form
matches the chain transitions, and product monoids factorize layer laws
across components.  Cliques of one follow class share their rows, so the
transition rows and the Parry matrices hold one row per class, as entries
on the family's compressed follow rows (``class_rows``).  A path's values
depend on a clique only through its ``follow_classes`` (class, size) node,
or the tuple of its parts' nodes for the factorization, so paths walk one
representative clique per node (``PathNodes``, whose successor rows are
compressed too).  No n x n or classes x n array is formed.

Nothing as long as the follow relation is formed either, but the relation
itself and the path nodes' successor rows: every check reads them in blocks
of whole rows of at most ``monoid._BLOCK`` entries (``monoid.row_blocks``), the
transition rows and the Parry entries a block of class rows at a time, the
paths from a block of start nodes whose first steps fit a block.  A row is
never split, so its sum is formed as from the whole array, and each check is
a maximum, which no order changes: the report is the same at any block size.
"""

from __future__ import annotations

from array import array
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


@dataclass(frozen=True)
class PathNodes:
    """The cliques grouped by a key on which every checked value depends: one
    representative clique per key (``rep``), its follow class (``cls``), and the nodes
    that may follow class ``k``, ``successors[offsets[k]:offsets[k + 1]]``.  Each admissible
    path of cliques maps to a node path along these rows, and each is the image of one."""

    rep: np.ndarray
    cls: np.ndarray
    offsets: np.ndarray
    successors: np.ndarray

    def edges(self, nodes):
        """``(i, j)``: each edge from node ``nodes[i]`` to node ``j``."""
        begin, counts = self.offsets[self.cls[nodes]], np.diff(self.offsets)[self.cls[nodes]]
        src = np.repeat(np.arange(len(nodes)), counts)   # row i's edges follow those of rows < i
        return src, self.successors[np.arange(len(src)) + (begin + counts - counts.cumsum())[src]]

    def blocks(self):
        """The nodes in runs whose edges fit a block (``row_blocks``): one node
        where its own edges do not."""
        ends = np.append(0, np.diff(self.offsets)[self.cls].cumsum())
        for lo, hi in row_blocks(ends):
            yield np.arange(lo, hi)


def _path_nodes(family, node_of, rep):
    """Path nodes of ``family``'s cliques: clique ``i`` is in node
    ``node_of[i]``, which must determine its follow class, and ``rep`` holds
    each node's first clique; nothing in them depends on a parameter.  The
    follow rows are read a block of classes at a time, and each block's
    successor rows are appended to one growing ``int32`` buffer, so no copy
    of them is held beside it."""
    classes = family.follow_classes
    lengths = np.empty(len(classes.follow), dtype=np.int64)
    successors = array("i")   # C ints: 32 bits wherever numpy runs
    for lo, hi in row_blocks(classes.offsets):
        # the block's (class, node) keys are class-major, so it dedupes on its own
        rows = np.diff(classes.offsets[lo:hi + 1])
        key = (np.repeat(np.arange(hi - lo) * len(rep), rows)
               + node_of[classes.columns[classes.offsets[lo]:classes.offsets[hi]]])
        key.sort()
        key = key[np.append(True, key[1:] != key[:-1])]
        lengths[lo:hi] = np.bincount(key // len(rep), minlength=hi - lo)
        successors.frombytes((key % len(rep)).astype(np.intc).tobytes())
    return PathNodes(rep, classes.class_of[rep], np.append(0, np.cumsum(lengths)),
                     np.frombuffer(successors, dtype=np.intc))


def _product_nodes(bundle):
    """Nodes keyed on the tuple of each component's (follow class, size) node
    of a clique's part in it.  The parts' follow sets OR to the clique's, so
    the tuple determines its follow class and its size."""
    fam = bundle.family
    key = np.zeros(len(fam), dtype=np.int64)
    for cb in bundle.components:
        cf = cb.family
        part = np.array([cf.index_of(m & cb.alphabet) for m in fam.masks])
        nodes = cf.follow_classes
        _, rep, key = np.unique(key * len(nodes.node_rep) + nodes.node_of[part],
                                return_index=True, return_inverse=True)
    return _path_nodes(fam, key, rep)


def _cylinder_deviation(chain, max_len, nodes):
    """Worst gap between path products and the closed cylinder form.

    A path's product and its closed form depend on each state only through
    ``h``, ``g`` and ``|c|``, so paths grow over ``nodes``, one clique per
    (class, size) node of ``follow_classes``: every admissible
    path of length 1 to ``max_len`` gives the values of one node path.  A
    path carries its last node, its product ``h(s0) P(s0, s1) ...`` and its
    letter count below the last layer.  Both sides are formed in the order
    ``oracle.path_probability`` and ``oracle.cylinder_probability`` use, so
    they match those bit for bit.  The paths start from one block of nodes
    (``PathNodes.blocks``) at a time.
    """
    fam = chain.family
    # p ** int once per prefix size, as cylinder_probability computes it
    powers = np.array([chain.p ** k for k in range((max_len - 1) * fam.max_clique_size + 1)])
    h = chain.h[nodes.rep]
    g = chain.g[nodes.rep]
    sizes = fam.sizes[nodes.rep]
    worst = 0.0
    for last in nodes.blocks():
        prod = h[last]
        prefix = np.zeros(len(last), dtype=np.int64)
        for length in range(1, max_len + 1):
            dev = np.abs(prod - powers[prefix] * h[last])
            worst = float(np.max(dev, initial=worst))
            if length == max_len:
                break
            src, nxt = nodes.edges(last)
            prev = last[src]
            # P(prev, nxt) is h(nxt)/g(prev) on an edge, and 1 on the empty clique's row
            step = np.divide(h[nxt], g[prev], out=np.ones(len(nxt)), where=nodes.rep[prev] > 0)
            prod = prod[src] * step
            prefix = prefix[src] + sizes[prev]
            last = nxt
    return worst


def _product_factorization_deviation(bundle, p, nodes):
    """Worst gap between global layer laws and the product of component laws.

    One-layer events compare ``h(c)`` with the product of the component
    ``h``; two-layer events compare ``p^{|c1|} h(c2)`` over every admissible
    pair with the product of the component terms, multiplied in component
    order.  Both depend on a clique only through its node in ``nodes``
    (``_product_nodes``), so each is read once per node and node edge, the
    edges from one block of nodes at a time.
    """
    fam = bundle.family
    h_global = h_vector(fam, p)[nodes.rep]
    masks = [fam.masks[i] for i in nodes.rep.tolist()]
    powers = np.array([p ** k for k in range(fam.max_clique_size + 1)])
    parts = [(cb.family.sizes, np.array([cb.family.index_of(m & cb.alphabet) for m in masks]),
              h_vector(cb.family, p)) for cb in bundle.components]
    one = np.ones(len(masks))
    for _, index, h_c in parts:
        one = one * h_c[index]
    worst = float(np.abs(h_global - one).max())
    for block in nodes.blocks():
        src, c2 = nodes.edges(block)
        c1 = block[src]
        two = np.ones(len(c1))
        for sizes, index, h_c in parts:
            two = two * (powers[sizes[index[c1]]] * h_c[index[c2]])
        left = powers[fam.sizes[nodes.rep[c1]]] * h_global[c2]
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
    nodes = _path_nodes(fam, fam.follow_classes.node_of, fam.follow_classes.node_rep)
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
        cyl_dev = max(cyl_dev, _cylinder_deviation(chain, max_len, nodes))
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
