"""Brute-force ground truth for small instances, plus the chi-square harness.

Everything here is deliberately naive: the chain's initial law as its
defining superset sums, exhaustive walks of the clique automaton, word-level
closures under adjacent swaps, plain averages, path probabilities one
transition at a time, the follow rule one letter at a time, chain steps by
counting a dense CDF row, divisor sums by peeling the heap, boundary prefixes
and rejection that step every walker to the horizon.
Fast code elsewhere is tested against these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, InsufficientSamples, RejectBudgetExhausted
from .monoid import iter_bits
from .sampling import DEFAULT_REJECT_BUDGET, _layer_union, _rejection_batch
from .traces import Trace, divides, normalize_word, remove_bottom

DEFAULT_ENUM_BUDGET = 10 ** 7


class TraceSet:
    """All traces of one fixed length, canonically ordered and indexed."""

    __slots__ = ("pair", "k", "traces", "index")

    def __init__(self, pair, k, traces):
        self.pair = pair
        self.k = k
        self.traces = tuple(sorted(traces, key=lambda t: t.layers))
        self.index = {t: i for i, t in enumerate(self.traces)}

    def __len__(self):
        return len(self.traces)

    def __iter__(self):
        return iter(self.traces)

    def __getitem__(self, i):
        return self.traces[i]


def iter_Mk(family, k, budget=DEFAULT_ENUM_BUDGET):
    """Every trace of length exactly ``k``, by walking the clique automaton;
    raises ``BudgetExceeded`` on the trace past ``budget``."""
    pair = family.pair
    class_of = family.follow_classes.class_of.tolist()
    cols = [family.class_columns(c).tolist() for c in range(len(family.follow_classes.follow))]
    sizes = family.sizes
    masks = family.masks
    found = 0

    def extend(row, layers, remaining):
        nonlocal found
        if remaining == 0:
            found += 1
            if found > budget:
                raise BudgetExceeded(f"more than {budget} traces of length {k}")
            yield Trace(pair, layers)
            return
        for idx in cols[row]:
            if idx == 0 or sizes[idx] > remaining:
                continue
            layers.append(masks[idx])
            yield from extend(class_of[idx], layers, remaining - int(sizes[idx]))
            layers.pop()

    yield from extend(family.follow_classes.start, [], k)   # the start's row: every clique


def enumerate_Mk(family, k, budget=DEFAULT_ENUM_BUDGET):
    """``iter_Mk`` as a ``TraceSet``."""
    return TraceSet(family.pair, k, iter_Mk(family, k, budget))


def enumerate_Mk_by_words(pair, k, budget=DEFAULT_ENUM_BUDGET):
    """Cross-check route: normalize all ``|A|^k`` words and deduplicate."""
    if pair.size ** k > budget:
        raise BudgetExceeded(f"{pair.size}^{k} words exceed the {budget} budget")
    seen = set()
    word = [0] * k

    def rec(pos):
        if pos == k:
            seen.add(normalize_word((pair.letters[i] for i in word), pair))
            return
        for i in range(pair.size):
            word[pos] = i
            rec(pos + 1)

    rec(0)
    return TraceSet(pair, k, seen)


def congruence_closure(word, pair, max_len=8):
    """All words reachable by swapping adjacent independent letters."""
    start = tuple(word)
    if len(start) > max_len:
        raise BudgetExceeded(f"word longer than the closure cap {max_len}")
    idx = [pair.letter_index(a) for a in start]
    seen = {start}
    stack = [tuple(idx)]
    visited = {tuple(idx)}
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a != b and pair.independent(a, b):
                swapped = w[:i] + (b, a) + w[i + 2:]
                if swapped not in visited:
                    visited.add(swapped)
                    stack.append(swapped)
                    seen.add(tuple(pair.letters[j] for j in swapped))
    return seen


def length_k_divisors(family, x, k):
    """Every trace ``y`` of length ``k`` with ``y <= x``, by filtering ``M_k``."""
    return [y for y in enumerate_Mk(family, k) if divides(y, x)]


def divisor_sums_by_peeling(layers, k, pair):
    """(count, sum of heights, sum of first-layer sizes) of the length-``k``
    left divisors of ``layers``, memoized on (residual, length, allowed).

    A divisor is its first layer ``s``, a subset of the bottom layer inside
    ``allowed`` (D of the layer peeled below it, every letter at the bottom),
    then a divisor of the residual, re-settled by ``remove_bottom``.
    """
    memo = {}

    def walk(layers, j, allowed):
        if j == 0:
            return 1, 0, 0
        if not layers:
            return 0, 0, 0
        key = (layers, j, allowed)
        hit = memo.get(key)
        if hit is None:
            count = heights = firsts = 0
            bottom = layers[0] & allowed
            s = bottom
            while s:
                size = s.bit_count()
                if size <= j:
                    c, h, _ = walk(remove_bottom(layers, s, pair), j - size, pair.follow(s))
                    count += c
                    heights += h + c
                    firsts += size * c
                s = (s - 1) & bottom
            hit = memo[key] = (count, heights, firsts)
        return hit

    return walk(tuple(layers), k, pair.full_mask)


def exact_uniform_expectation(family, k, phi, budget=DEFAULT_ENUM_BUDGET):
    """Plain average of ``phi`` over every trace of length ``k``."""
    ts = enumerate_Mk(family, k, budget=budget)
    return sum(phi(t) for t in ts) / len(ts)


# -- clique chain paths ----------------------------------------------------------

def superset_h_g(family, p):
    """``h`` and ``g`` as their defining sums over the cliques ``c'``
    containing each clique ``c``, evaluated exactly in fractions and rounded
    once: ``g(c) = sum (-p)^{|c'|-|c|}`` and ``h(c) = p^{|c|} g(c)``."""
    x = Fraction(p)
    h, g = [], []
    for c in family.masks:
        total = sum((-x) ** (c2 ^ c).bit_count() for c2 in family.masks if c2 & c == c)
        g.append(float(total))
        h.append(float(x ** c.bit_count() * total))
    return np.array(h), np.array(g)


def letter_admissible(pair, c, c2):
    """May clique ``c2`` follow ``c``?  The definition, one letter at a time:
    every letter of ``c2`` depends on some letter of ``c``."""
    return all(c & pair.dep_masks[a] for a in iter_bits(c2))


def cylinder_probability(chain, states):
    """Probability that the first ``len(states)`` layers equal ``states``.

    Closed form ``p^{letters before the last layer} * h(last)``; equals the
    telescoped product of transition entries along the path.
    """
    if not states:
        return 1.0
    sizes = chain.family.sizes
    prefix = int(sum(sizes[s] for s in states[:-1]))
    return chain.p ** prefix * float(chain.h[states[-1]])


def path_probability(chain, states):
    """Same probability as an explicit product ``h(c1) * prod P`` steps."""
    if not states:
        return 1.0
    acc = float(chain.h[states[0]])
    for a, b in zip(states, states[1:]):
        acc *= float(chain.P[a, b])
    return acc


def dense_cdf(chain):
    """The chain's transition CDF as a dense n x n array: the row cumsums of
    ``P``, reading ``+inf`` from each row's last admissible column on."""
    cum = np.cumsum(chain.P, axis=1)
    classes = chain.family.follow_classes
    last = classes.columns[classes.offsets[classes.class_of + 1] - 1]
    cum[np.arange(chain.n_states)[None, :] >= last[:, None]] = np.inf
    return cum


def dense_steps(cum, states, u):
    """Next states the dense way: how many entries of each walker's CDF row
    ``cum[state]`` are at most its uniform."""
    return (cum[states] <= u[:, None]).sum(axis=1)


def _chain_states_batch(chain, k, n, rng):
    """(n, k) chain states: k steps of every walker from the start row, one
    (n, k) draw, absorbed walkers included."""
    states = np.empty((n, k), dtype=np.int32)
    u = rng.random((n, k))
    s = np.full(n, chain.n_states)
    for t in range(k):
        s = chain.step(s, u[:, t])
        states[:, t] = s
    return states


def all_walker_prefix_batch(bundle, k, n, rng):
    """``topped_prefix_batch`` stepping every walker k times per component."""
    chains = [cb.chain(bundle.p0) for cb in bundle.components]
    return _layer_union(chains, [_chain_states_batch(ch, k, n, rng) for ch in chains])


def all_walker_uniform_traces(bundle, k, n, rng, max_rejects=DEFAULT_REJECT_BUDGET):
    """``sample_uniform_traces`` stepping every walker k+1 times per component.

    Same batches, same draws (one (batch, k+1) block per component), same
    acceptance scan; absorbed and overlong walkers keep walking, and lengths
    are summed over the whole state history afterwards.
    """
    pair = bundle.pair
    if k == 0:
        return [Trace(pair)] * n, 0
    p = bundle.optimal_parameter(k)
    chains = [cb.chain(p) for cb in bundle.components]
    sizes = [cb.family.sizes for cb in bundle.components]
    accept_rate = bundle.expected_acceptance(k, p)
    traces = []
    closed = 0
    rejections = 0
    while len(traces) < n:
        batch = _rejection_batch(n - len(traces), accept_rate, n + max_rejects - closed)
        hists = [_chain_states_batch(ch, k + 1, batch, rng) for ch in chains]
        total_len = sum(sz[hist].sum(axis=1) for sz, hist in zip(sizes, hists))
        acc_idx = np.flatnonzero(total_len == k)
        gm = _layer_union(chains, [hist[acc_idx] for hist in hists])
        for r, i in enumerate(acc_idx.tolist()):
            traces.append(Trace(pair, [int(m) for m in gm[r] if m]))
            if len(traces) == n:
                return traces, closed + i + 1 - n
        closed += batch
        rejections = closed - len(traces)
        if rejections > max_rejects:
            raise RejectBudgetExhausted(f"no {n} length-{k} traces within {max_rejects} rejections")
    return traces, rejections


def iter_admissible_chains(family, length, include_empty=True):
    """All admissible state chains of the given length, as index tuples."""
    class_of = family.follow_classes.class_of
    first = range(len(family)) if include_empty else range(1, len(family))

    def extend(prefix, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        for nxt in family.class_columns(class_of[prefix[-1]]).tolist():
            if not include_empty and nxt == 0:
                continue
            prefix.append(nxt)
            yield from extend(prefix, remaining - 1)
            prefix.pop()

    if length <= 0:
        yield ()
        return
    for s in first:
        yield from extend([s], length - 1)


# -- chi-square goodness of fit --------------------------------------------------

@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    pvalue: float
    passed: bool


def chi_square_uniformity(counts, significance=0.001):
    """Pearson test of the counts against the uniform law over their cells."""
    counts = np.asarray(counts, dtype=float)
    m = len(counts)
    total = float(counts.sum())
    expected = total / m
    if expected < 5.0:
        raise InsufficientSamples(
            f"expected count per cell is {expected:.2f}; need at least 5"
        )
    # imported here: the CLI loads this module for `count --exact`, which needs numpy alone
    from scipy.special import chdtrc

    stat = float(((counts - expected) ** 2 / expected).sum())
    pvalue = float(chdtrc(m - 1, stat))
    return ChiSquareResult(statistic=stat, dof=m - 1, pvalue=pvalue, passed=pvalue >= significance)
