"""Random generation of traces and boundary prefixes.

One engine, the clique chain, serves all three regimes:

* at the principal root the chain never hits the empty clique and its first
  ``k`` states are a random boundary prefix (``topped_prefix_batch``);
* strictly below the root the empty clique absorbs in finite time and the
  non-empty states spell out a random finite trace whose law weights each
  trace ``x`` by ``p^{|x|}`` (``sample_subuniform_traces``, or
  ``sample_subuniform_trace`` for one);
* exactly-uniform length-``k`` traces come from rejection: draw below the
  root at the parameter whose mean length is ``k`` and keep length-``k``
  outcomes, which are equally likely by construction
  (``sample_uniform_traces``).

Batches run many walkers at once through the chain's vectorized step, and
each subuniform draw runs the scalar absorbing walk over every component
(both in ``chain.py``, which owns the CDF layout); every walk's first draw,
from the initial law, is a step like the others.  A subuniform stream checks
the parameter and fetches the chains once, then reads its uniforms from
block draws of the generator: the values one ``rng.random()`` per state
would give, in the same order, so a stream of ``n`` draws is ``n`` single
draws.  Boundary prefixes and rejection share one batched walk: a row chunk
at a time, it walks every component, stepping only the walkers that are
neither absorbed nor over a length bound (rejection's ``k``; boundary walkers
weigh every clique 0, so only absorption drops them), and hands the chunk on
before the next one is drawn.  A batch's uniforms are laid out as one
(batch, steps) draw per component; Philox is counter-based, so each
component reads from a copy of the generator moved to its place in that
stream, and rejection stops walking at the n-th acceptance while the
generator still ends after the whole batch.
Each sampler hands out its traces a row chunk at a time, as layer masks
(``topped_prefix_chunks``, ``uniform_layer_chunks``,
``subuniform_layer_chunks``), so a caller that serializes them holds one
chunk's rows; the functions that return whole arrays or ``Trace`` lists
collect those chunks.
Reducible monoids run each irreducible component's chain at the same
parameter and OR the components' layers, depth by depth: a component's
cliques are masks over the whole alphabet, so a state's clique is its letters
in the product, which is exactly how the product monoid stacks its heaps.

Randomness is counter-based (Philox, 4x64) keyed by ``(seed, stream_id)``:
identical sources replay identical streams and distinct stream ids give
independent streams for worker replication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import absorbing_layers
from .counting import ACCEPTANCE_FLOOR, RootPosition, root_position
from .errors import ParameterOutOfRange, RejectBudgetExhausted
from .traces import Trace

RNG_ALGORITHM = "philox4x64"
_MASK64 = (1 << 64) - 1
_BATCH_CAP = 1 << 18
_CHUNK_ROWS = 1 << 12  # rows of uniforms drawn and stepped at once
_DRAW_BLOCK = 1 << 12  # uniforms per block draw of a subuniform stream
DEFAULT_REJECT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class RandomSource:
    """Deterministic stream handle: (seed, stream_id) keys a Philox generator."""

    seed: int
    stream_id: int = 0

    def generator(self):
        # a uint64 array: a list would go through float64 for a key past int64
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _layer_union(chains, states):
    """Layer masks from per-component state arrays of one shape, one row per
    walker and one column per layer: the OR of each state's clique mask."""
    out = np.zeros(states[0].shape, dtype=np.uint64)
    for chain, s in zip(chains, states):
        out |= chain.family.masks_np[s]
    return out


# -- batched walk --------------------------------------------------------------

def _positioned(rng, skip):
    """A copy of ``rng`` that draws what ``rng`` would after ``skip`` more
    doubles (one 64-bit output each); ``rng`` is not touched.

    Philox is counter-based: the copy draws what is left of the current
    four-output block, moves its counter over whole blocks and draws the
    rest.  Any other bit generator is refused."""
    bg = rng.bit_generator
    if not isinstance(bg, np.random.Philox):
        raise TypeError(f"batched sampling needs a Philox generator, not {type(bg).__name__}")
    state = bg.state
    out = np.random.Generator(np.random.Philox(key=0))
    out.bit_generator.state = state
    left = 4 - state["buffer_pos"]  # outputs of the current block not yet drawn
    if skip <= left:
        out.random(skip)
        return out
    out.random(left)
    blocks, rest = divmod(skip - left, 4)
    out.bit_generator.advance(blocks)
    # advance also drops a buffered 32-bit half, which drawing doubles keeps
    moved = out.bit_generator.state
    moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
    out.bit_generator.state = moved
    out.random(rest)
    return out


def _walk_live(chain, size, bound, u, hist, total):
    """Walk the walkers of one row chunk that are within length ``bound``
    from the start row, while they are neither absorbed nor over the bound.

    ``u`` is the chunk's (rows, steps) uniforms, ``hist`` its (steps, rows)
    state history and ``total`` its running lengths, both updated in place.
    Walkers dropped here keep state 0 in the later columns, as the empty
    clique's point mass would give them; an over-length walker's later
    states are never read.
    """
    live = np.flatnonzero(total <= bound)
    s = np.full(len(live), chain.n_states)
    tot = total[live]
    for t in range(u.shape[1]):
        if not len(live):
            break
        s = chain.step(s, u[live, t])
        hist[t, live] = s
        tot += size[s]
        total[live] = tot
        keep = (s != 0) & (tot <= bound)
        if not keep.all():
            live, s, tot = live[keep], s[keep], tot[keep]


def _walk_chunks(chains, sizes, bound, steps, batch, rng):
    """``batch`` walks of ``steps`` states per component, one row chunk at a
    time: yields ``(lo, total, hists)`` for rows ``lo`` on, with each
    walker's total length (clique sizes weighted by ``sizes``) and, per
    component, the chunk's (steps, rows) state history.

    The stream is that of one (batch, steps) draw per component, in
    component order: component ``c`` reads from a copy of ``rng`` positioned
    ``c * batch * steps`` doubles ahead, and a chunk is ``_CHUNK_ROWS`` rows
    of them.  A component starts only the walkers the earlier ones left at
    length <= ``bound``.  When the walk is exhausted or closed, ``rng`` is
    left after the whole batch's draws, so chunks never walked cost nothing
    and the next values on ``rng`` are unchanged.
    """
    span = batch * steps
    streams = [_positioned(rng, c * span) for c in range(len(chains))]
    try:
        for lo in range(0, batch, _CHUNK_ROWS):
            total = np.zeros(min(_CHUNK_ROWS, batch - lo), dtype=np.int64)
            hists = []
            for chain, size, stream in zip(chains, sizes, streams):
                # the narrowest type that holds a state index: uint8 up to 256 cliques
                hist = np.zeros((steps, len(total)), dtype=np.min_scalar_type(chain.n_states - 1))
                _walk_live(chain, size, bound, stream.random((len(total), steps)), hist, total)
                hists.append(hist)
            yield lo, total, hists
    finally:
        rng.bit_generator.state = _positioned(rng, len(chains) * span).bit_generator.state


def topped_prefix_chunks(bundle, k, n, rng):
    """``topped_prefix_batch``'s rows, one row chunk of layer masks at a time.

    Each component runs its chain at the global root: the boundary chain where
    that is the component's own root, the absorbing chain elsewhere.  Every
    clique weighs 0 here, so no walker passes the bound and each walks ``k``
    states or until it absorbs.
    """
    chains = [cb.chain(bundle.p0) for cb in bundle.components]
    weightless = [np.zeros(chain.n_states, dtype=np.uint8) for chain in chains]
    for _, _, hists in _walk_chunks(chains, weightless, 0, k, n, rng):
        yield _layer_union(chains, [hist.T for hist in hists])


def topped_prefix_batch(bundle, k, n, rng):
    """(n, k) layer masks of the first ``k`` layers under the uniform law."""
    out = np.empty((n, k), dtype=np.uint64)
    lo = 0
    for rows in topped_prefix_chunks(bundle, k, n, rng):
        out[lo : lo + len(rows)] = rows
        lo += len(rows)
    return out


def _rejection_batch(need, accept_rate, room):
    """Proposals in the next exact-k batch, for ``need`` more acceptances at
    the predicted ``accept_rate``: 20% above the expected count, at least 4096
    and at most ``_BATCH_CAP``, and no more than the ``room`` proposals the
    rejection budget still lets a batch scan."""
    batch = int(min(max(4096, need / max(accept_rate, ACCEPTANCE_FLOOR) * 1.2), _BATCH_CAP))
    return min(batch, room)


def uniform_layer_chunks(bundle, k, n, rng, max_rejects=DEFAULT_REJECT_BUDGET):
    """``n`` exactly-uniform length-``k`` traces, batched, as one list of
    layer masks (Python ints) per row chunk with an acceptance.

    Proposals run up to k+1 chain steps per component: a walker still alive
    after k+1 non-empty layers is already overlong, so that horizon decides
    acceptance.  Each batch is scanned chunk by chunk, and the walk stops at
    the n-th acceptance.  Returns (as the generator's value) the rejections
    before the n-th acceptance.
    """
    if k == 0:
        for lo in range(0, n, _CHUNK_ROWS):
            yield [()] * min(_CHUNK_ROWS, n - lo)
        return 0
    p = bundle.optimal_parameter(k)
    chains = [cb.chain(p) for cb in bundle.components]
    # clique sizes are at most 64: uint8 keeps the per-step gather small
    sizes = [cb.family.sizes.astype(np.uint8) for cb in bundle.components]
    accept_rate = bundle.expected_acceptance(k, p)

    done = 0    # acceptances yielded
    closed = 0  # proposals in fully scanned batches
    while done < n:
        batch = _rejection_batch(n - done, accept_rate, n + max_rejects - closed)
        walk = _walk_chunks(chains, sizes, k, k + 1, batch, rng)
        for lo, total_len, hists in walk:
            acc_idx = np.flatnonzero(total_len == k)[: n - done]
            if not len(acc_idx):
                continue
            gm = _layer_union(chains, [hist[:, acc_idx].T for hist in hists])
            heights = (gm != 0).sum(axis=1).tolist()
            rows = [row[:h] for row, h in zip(gm.tolist(), heights)]
            done += len(rows)
            if done == n:
                walk.close()
                yield rows
                return closed + lo + int(acc_idx[-1]) + 1 - n
            yield rows
        closed += batch
        if closed - done > max_rejects:
            raise RejectBudgetExhausted(f"no {n} length-{k} traces within {max_rejects} rejections")
    return 0


def sample_uniform_traces(bundle, k, n, rng, max_rejects=DEFAULT_REJECT_BUDGET):
    """``n`` exactly-uniform length-``k`` traces: ``uniform_layer_chunks``'
    rows as traces.  Returns (traces, rejections before the n-th acceptance).
    """
    pair = bundle.pair
    chunks = uniform_layer_chunks(bundle, k, n, rng, max_rejects)
    traces = []
    try:
        while True:
            traces += [Trace(pair, layers) for layers in next(chunks)]
    except StopIteration as end:
        return traces, end.value


# -- subuniform draws ---------------------------------------------------------

def _below_root(bundle, p):
    """Each component's chain at ``p``, for walks that absorb: ``p`` must lie
    strictly below the root."""
    if root_position(p, bundle.p0) is not RootPosition.BELOW:
        raise ParameterOutOfRange(
            f"subuniform finite sampling needs p strictly below {bundle.p0}"
        )
    return [cb.chain(p) for cb in bundle.components]


def _block_uniforms(rng):
    """``rng``'s uniforms one at a time, drawn ``_DRAW_BLOCK`` at once: a
    block draw takes one 64-bit output per double, as ``rng.random()`` does,
    so these are the values repeated single draws would give."""
    while True:
        yield from rng.random(_DRAW_BLOCK).tolist()


def sample_subuniform_trace(bundle, p, rng):
    """One finite trace with law proportional to ``p^{length}`` (p below root).
    It takes one ``rng.random()`` per step of its walks, absorption included."""
    return Trace(bundle.pair, absorbing_layers(_below_root(bundle, p), rng.random))


def subuniform_layer_chunks(bundle, p, n, rng):
    """``n`` draws of ``sample_subuniform_trace`` from one stream, as one list
    of layer masks (Python ints) per ``_CHUNK_ROWS`` draws: the same traces as
    ``n`` single draws on the same generator, read from block draws of its
    uniforms.  The generator is left up to a block past the last uniform
    used."""
    chains = _below_root(bundle, p)
    draw = _block_uniforms(rng).__next__
    for lo in range(0, n, _CHUNK_ROWS):
        yield [absorbing_layers(chains, draw) for _ in range(min(_CHUNK_ROWS, n - lo))]


def sample_subuniform_traces(bundle, p, n, rng):
    """``subuniform_layer_chunks``' draws as ``n`` traces."""
    pair = bundle.pair
    return [Trace(pair, layers) for rows in subuniform_layer_chunks(bundle, p, n, rng)
            for layers in rows]
