"""The clique chain: probabilistic core of sub-uniform trace generation.

For a parameter ``p`` at most the principal root, the layer sequence of a
random trace drawn from the sub-uniform measure of parameter ``p`` is a
Markov chain on cliques.  Its initial law ``h`` is an alternating sum of
``p^{|c'|}`` over the cliques containing ``c`` (a Mobius transform over the
clique lattice), ``g`` rescales ``h`` by ``p^{|c|}``, and transitions move
mass ``h(c')/g(c)`` along admissible edges.  A clique containing ``c`` is
``c`` plus a clique of ``I(c)``, the letters commuting with all of ``c``, so
``g(c)`` is the clique polynomial of ``I(c)`` at ``p``: it depends on ``c``
only through its follow set ``D(c)`` (``I(c)`` is the rest of the
alphabet), and the family's ``follow_classes`` count the cliques inside each
class's ``I`` by size.  ``h`` and ``g`` are evaluated from those counts in
integers (a float ``p`` is dyadic) and rounded once, so they are the exact
values rounded and no BLAS call or thread count enters them.  Below the
root the empty clique is an absorbing state reached in finite time; at the
root it is unreachable and the chain restricted to non-empty cliques shares
its transition matrix with the Parry chain of the weighted clique automaton.

A chain stores its whole law compactly, and only this module reads that
layout.  Row ``c`` of the transitions is ``h(c')/g(c)`` over the cliques
``c' ⊆ D(c)``, so it depends on ``c`` only through its follow class; the
start state ``n`` has the class of the whole alphabet, whose ``g`` is 1, so
its row is ``cumsum(h)``.  Each class's row is stored once,
as its cumulative sums over its admissible columns (the cliques
``family.class_columns`` lists for the class), and each row ends in
``+inf`` on its last column, so a uniform at or above the row's float total
(which can fall short of 1) stays inside the row.  Row 0 is the empty
clique's point mass: its D alone is empty.  ``P_cum`` is one ``float64``
array of the rows' cumulative values, ``cols`` holds each entry's column,
and state ``s``'s row is ``[lo[s], hi[s])`` for each of the ``n + 1``
states.  A step lands on the first entry of the walker's row above its
uniform, as ``searchsorted`` with ``side="right"`` would:
``CliqueChain.step`` runs one fixed-stride binary search for any number of
walkers at once, each inside its own row, with strides halving from the
widest row's; a walk's first draw is a step from ``n``.  One draw below the
root (``absorbing_layers``) walks each component's chain in turn to
absorption with the same lookup, a ``bisect`` between its state's row bounds
read through memoryviews and lists, and ORs each state's clique mask into
the layer of its depth: a component's cliques are masks over the whole
alphabet, so the OR is the product monoid's layer.  It takes one uniform per
state from a zero-argument callable (``rng.random`` for a single draw,
values of block draws for a stream) and makes no numpy array or scalar per
step; both kernels land on the same state for the same uniform.  A row's
cumulative sums equal the dense row's there bit for bit (adding the 0.0 of
an inadmissible entry is exact), so the draws are those of the dense CDF.
Building the rows reads no n x n array, and neither do ``verify``'s rows
(``class_rows``) or the Parry matrices, one row per follow class from the
same ``class_columns``.  The dense ``P`` (``transition_matrix``), and with it
the family's dense admissibility, is formed only when read, which no CLI
command does.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import mul

import numpy as np

from .counting import G_FLOOR_RTOL, RootPosition, root_position
from .errors import DegenerateState, IterationCap, ParameterOutOfRange, ReducibleMonoid
from .monoid import decompose_components

FINITE_STEP_CAP = 10 ** 8


def _class_numerators(family, p):
    """``p = a / 2^b`` exactly (a float is dyadic) and, for each follow class
    ``k``, the integer ``M_k = 2^{b d} mu_k(p)``, where ``mu_k`` is the clique
    polynomial of the letters the class commutes with and ``d`` the family's
    largest clique size.  Returns ``(a, b, d, M)``."""
    if p <= 0.0:
        raise ParameterOutOfRange(f"p must be positive, got {p}")
    a, den = float(p).as_integer_ratio()
    b = den.bit_length() - 1
    counts = family.follow_classes.counts
    d = counts.shape[1] - 1
    terms = [(-a) ** j << b * (d - j) for j in range(d + 1)]
    return a, b, d, [sum(map(mul, row, terms)) for row in counts.tolist()]


def h_vector(family, p):
    """Initial clique law: alternating superset sums of ``p``-weights.

    ``h(c) = sum over cliques c' containing c of (-1)^{|c'|-|c|} p^{|c'|}``.
    A superset of ``c`` is ``c`` plus a clique of the letters commuting with
    all of ``c``, so ``h(c) = p^{|c|} mu_k(p)`` for ``c``'s follow class
    ``k``; it is evaluated exactly and rounded once per (class, size).
    """
    a, b, d, M = _class_numerators(family, p)
    key = family.follow_classes.class_of * (d + 1) + family.sizes
    pairs, inverse = np.unique(key, return_inverse=True)
    classes, sizes = divmod(pairs, d + 1)
    values = [a ** s * M[k] / (1 << b * (d + s)) for k, s in zip(classes.tolist(), sizes.tolist())]
    return np.array(values)[inverse]


def g_vector(family, p):
    """Rescaled law ``g(c) = h(c) / p^{|c|} = mu_k(p)`` for ``c``'s follow
    class ``k``, evaluated exactly and rounded once per class."""
    _, b, d, M = _class_numerators(family, p)
    scale = 1 << b * d
    return np.array([m / scale for m in M])[family.follow_classes.class_of]


def _check_rows(g, at_p0):
    """Refuse a chain whose transition row ``h/g(c)`` needs a vanishing ``g(c)``
    (row 0 is the empty clique's point mass and needs none at the root)."""
    start = 1 if at_p0 else 0
    gs = g[start:]
    # a mathematical zero of g shows up as a float residue of arbitrary sign,
    # so the refusal uses a relative threshold, not the raw sign; fmax skips a
    # NaN, which then fails the test where it sits
    tol = G_FLOOR_RTOL * float(np.fmax.reduce(np.abs(g)))
    bad = ~(gs > tol)
    if np.any(bad):
        raise DegenerateState(
            f"g vanishes on clique index {int(np.argmax(bad)) + start} "
            "where a transition row is required"
        )


def transition_matrix(family, h, g, at_p0=False):
    """Row-stochastic transitions ``P[c, c'] = h(c')/g(c)`` on admissible edges.

    Only the empty clique follows itself, so row 0 is its point mass at every
    ``p``: absorbing below the root, unreachable at the root, where ``h[0] = 0``
    makes every ``P[c, 0]`` zero (and ``g[0] = 0`` is no degenerate row).
    """
    _check_rows(g, at_p0)
    P = np.where(family.admissibility, h[None, :], 0.0)
    P[1:] /= g[1:, None]
    P[0, 0] = 1.0
    return P


def _compact_cdf(family, h, g):
    """The CDF of the module docstring: ``(P_cum, cols, lo, hi)``, one row per
    follow class.  The empty clique's row skips the division, as at the root
    ``g[0] = 0``."""
    classes = family.follow_classes
    row_of = np.append(classes.class_of, classes.start)
    norm = np.append(g, 1.0)
    first = np.unique(row_of, return_index=True)[1]
    idxs = [family.class_columns(k) for k in range(len(classes.follow))]
    starts = np.cumsum([0, *map(len, idxs)])
    P_cum = np.empty(int(starts[-1]))
    bounds = starts.tolist()
    for idx, state, lo, hi in zip(idxs, first.tolist(), bounds, bounds[1:]):
        if state:
            (h[idx] / norm[state]).cumsum(out=P_cum[lo:hi])
    P_cum[starts[1:] - 1] = np.inf
    return P_cum, np.concatenate(idxs).astype(np.int32), starts[row_of], starts[row_of + 1]


@dataclass
class ChainLaw:
    """``p``, the initial law ``h`` and its rescaling ``g``; the dense
    transitions ``P`` are formed on first read."""

    family: object
    p: float
    at_p0: bool
    h: np.ndarray
    g: np.ndarray

    @property
    def n_states(self):
        return len(self.family)

    @cached_property
    def P(self):
        return transition_matrix(self.family, self.h, self.g, at_p0=self.at_p0)


def chain_law(family, p, p0):
    """The law of the clique chain at parameter ``p`` for the principal root
    ``p0``, with no sampling CDF.

    Boundary behaviour (empty clique unreachable) engages when ``p`` sits at
    the root in the sense of ``counting.root_position``; callers wanting that
    regime should pass the computed root itself.
    """
    position = root_position(p, p0)
    if position is RootPosition.OUT_OF_RANGE:
        raise ParameterOutOfRange(f"p must lie in (0, {p0}], got {p}")
    at_p0 = position is RootPosition.AT
    h = h_vector(family, p)
    g = g_vector(family, p)
    if at_p0:
        # mu(p0) is a float residue near machine epsilon; the boundary chain
        # sets it to exact zero so the empty clique is truly unreachable
        h[0] = g[0] = 0.0
    _check_rows(g, at_p0)
    return ChainLaw(family, p, at_p0, h, g)


@dataclass
class CliqueChain(ChainLaw):
    """A chain law with its sampling CDF (``P_cum``, ``cols``, ``lo``, ``hi``;
    see ``_compact_cdf``), which ``step`` and ``absorbing_layers`` read."""

    P_cum: np.ndarray
    cols: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @cached_property
    def _top_stride(self):
        """The largest power of two below the widest row's width, or 0 when
        every row has one entry: the strides down to 1 then sum to at least
        ``width - 1``, the farthest a step moves from the row's start."""
        width = int((self.hi - self.lo).max())
        return (1 << (width - 1).bit_length()) >> 1

    def step(self, states, u):
        """Next state of each walker in ``states`` (state ``n`` for a first
        draw) for its uniform in ``u``.

        ``pos`` is the last entry known to be at most ``u``, starting just
        before the row; a stride is taken where the entry it reaches, clamped
        to the row's last, is at most ``u``.  The last entry is ``+inf``, so a
        clamped stride is never taken and the step lands on ``pos + 1``."""
        P_cum = self.P_cum
        pos = self.lo[states] - 1
        last = self.hi[states] - 1
        stride = self._top_stride
        while stride:
            cand = np.minimum(pos + stride, last)
            pos += stride * (P_cum[cand] <= u)
            stride >>= 1
        return self.cols[pos + 1]

    @cached_property
    def _walk_tables(self):
        """The sampling CDF as a scalar walk reads it, one Python float or
        int per lookup and no numpy scalar: memoryviews of ``P_cum`` and of
        ``cols``, and the bounds of each state's row as two lists of
        ``n + 1`` offsets.  Nothing else is copied."""
        return memoryview(self.P_cum), memoryview(self.cols), self.lo.tolist(), self.hi.tolist()


def absorbing_layers(chains, draw):
    """Layer masks of one draw below the root: each component's chain in
    ``chains`` walks in turn to absorption, one uniform from ``draw()`` per
    state, looked up with ``bisect`` inside the current state's row, the
    start state's (the last) first.  Each visited state's clique mask is ORed
    into the layer of its depth."""
    layers = []
    for chain in chains:
        table = chain.family.masks
        cums, cols, lo, hi = chain._walk_tables
        depth = 0
        state = cols[bisect_right(cums, draw(), lo[-1], hi[-1])]
        while state:
            if depth >= FINITE_STEP_CAP:
                raise IterationCap(f"no absorption within {FINITE_STEP_CAP} steps")
            if depth < len(layers):
                layers[depth] |= table[state]
            else:
                layers.append(table[state])
            depth += 1
            state = cols[bisect_right(cums, draw(), lo[state], hi[state])]
    return layers


def clique_chain(family, p, p0):
    """The clique chain at parameter ``p`` for the principal root ``p0``: its
    law (``chain_law``) and, built eagerly, its sampling CDF."""
    law = chain_law(family, p, p0)
    return CliqueChain(family, p, law.at_p0, law.h, law.g, *_compact_cdf(family, law.h, law.g))


# -- Parry comparison ---------------------------------------------------------

@dataclass
class ParryPair:
    """Weighted incidence matrix ``B`` of the non-empty cliques and its stochastic
    form ``C``, one row per follow class: clique ``i`` reads row ``rows[i - 1]``."""

    B: np.ndarray
    C: np.ndarray
    rows: np.ndarray
    g: np.ndarray
    Bg: np.ndarray
    spectral_radius: float


def class_rows(family):
    """One transition row per follow class of the non-empty cliques: each
    class's first clique, its admissibility row (``len(family)`` booleans),
    and each non-empty clique's row."""
    classes, first, rows = np.unique(family.follow_classes.class_of[1:], return_index=True,
                                     return_inverse=True)
    return first + 1, family.class_admissibility(classes.tolist()), rows


def parry_matrices(family, p0, h, g):
    """Weighted incidence matrix ``B`` and stochastic matrix ``C`` at the root,
    one row per follow class.  ``B g`` is summed row by row, with no BLAS call,
    and ``spectral_radius`` is whichever Collatz-Wielandt bound
    ``min (Bg)/g <= rho(B) <= max (Bg)/g`` (``g`` is positive) lies farther from 1.

    Only defined when the clique automaton is strongly connected, i.e. for
    irreducible monoids; reducible input is refused.
    """
    if len(decompose_components(family.pair, family.alphabet)) > 1:
        raise ReducibleMonoid(
            "the Parry construction needs an irreducible monoid; "
            "this one splits into several independent components"
        )
    first, adm, rows = class_rows(family)
    gs = g[1:]
    B = np.where(adm[:, 1:], p0 ** family.sizes[None, 1:], 0.0)
    C = B * gs
    Bg = C.sum(axis=1)   # the row sums of B g, taken before C is normalized
    C /= g[first, None]
    ratio = Bg / g[first]
    rho = max(ratio.min(), ratio.max(), key=lambda r: abs(r - 1.0))
    return ParryPair(B=B, C=C, rows=rows, g=gs, Bg=Bg[rows], spectral_radius=float(rho))
