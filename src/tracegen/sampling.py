"""Random generation of traces and boundary prefixes.

One engine, the clique chain, serves all three regimes:

* at the principal root the chain never hits the empty clique and its first
  ``k`` states are a random boundary prefix (``topped_prefix_batch``);
* strictly below the root the empty clique absorbs in finite time and the
  non-empty states spell out a random finite trace whose law weights each
  trace ``x`` by ``p^{|x|}`` (``sample_subuniform_trace``);
* exactly-uniform length-``k`` traces come from rejection: draw below the
  root at the parameter whose mean length is ``k`` and keep length-``k``
  outcomes, which are equally likely by construction
  (``sample_uniform_traces``).

Batches run many walkers at once through one vectorized step kernel; a
single subuniform draw runs one scalar walk until absorption.  Both take a
step the same way: one ``searchsorted`` of ``state + 1j*u`` in the chain's
compact row-keyed CDF (see ``chain.py``), O(log n) in the number of cliques.
Reducible monoids run each irreducible component's chain at the same
parameter and union the layers through the bundle's component-to-global
gather tables, which is exactly how the product monoid stacks its heaps.

Randomness is counter-based (Philox, 4x64) keyed by ``(seed, stream_id)``:
identical sources replay identical streams and distinct stream ids give
independent streams for worker replication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import ACCEPTANCE_FLOOR, RootPosition, root_position
from .errors import IterationCap, ParameterOutOfRange, RejectBudgetExhausted
from .traces import Trace

RNG_ALGORITHM = "philox4x64"
_MASK64 = (1 << 64) - 1
_BATCH_CAP = 1 << 18
FINITE_STEP_CAP = 10 ** 8
DEFAULT_REJECT_BUDGET = 10 ** 7


@dataclass(frozen=True)
class RandomSource:
    """Deterministic stream handle: (seed, stream_id) keys a Philox generator."""

    seed: int
    stream_id: int = 0

    def generator(self):
        key = [self.seed & _MASK64, self.stream_id & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))


def _layer_union(bundle, states):
    """Global layer masks from per-component state arrays aligned at layer 0.

    Arrays may be shorter than the longest along the last axis (an absorbed
    walk); the missing layers contribute the empty clique.
    """
    tables = bundle.component_masks
    width = max(s.shape[-1] for s in states)
    out = np.zeros(states[0].shape[:-1] + (width,), dtype=np.uint64)
    for table, s in zip(tables, states):
        out[..., : s.shape[-1]] |= table[s]
    return out


# -- vectorized kernel ---------------------------------------------------------

def _first_states(chain, u):
    return np.searchsorted(chain.h_cum, u, side="right")


def _step_states(chain, states, u):
    return chain.cols[np.searchsorted(chain.P_cum, states + 1j * u, side="right")]


def _chain_states_batch(chain, k, n, rng):
    """(n, k) chain states: initial draw plus k-1 transitions per walker."""
    states = np.empty((n, k), dtype=np.int32)
    if k == 0:
        return states
    u = rng.random((n, k))
    s = _first_states(chain, u[:, 0])
    states[:, 0] = s
    for t in range(1, k):
        s = _step_states(chain, s, u[:, t])
        states[:, t] = s
    return states


def topped_prefix_batch(bundle, k, n, rng):
    """(n, k) global layer masks of the first ``k`` layers under the uniform law.

    Each component runs its chain at the global root: the boundary chain where
    that is the component's own root, the absorbing chain elsewhere.
    """
    states = [_chain_states_batch(cb.chain(bundle.p0), k, n, rng) for cb in bundle.components]
    return _layer_union(bundle, states)


def sample_uniform_traces(bundle, k, n, rng, max_rejects=DEFAULT_REJECT_BUDGET):
    """``n`` exactly-uniform length-``k`` traces, batched.

    Proposals run k+1 chain steps per component: a walker still alive after
    k+1 non-empty layers is already overlong, so that horizon decides
    acceptance.  Returns (traces, rejections before the n-th acceptance).
    """
    pair = bundle.pair
    if k == 0:
        return [Trace(pair)] * n, 0
    p = bundle.optimal_parameter(k)
    chains = [cb.chain(p) for cb in bundle.components]
    # clique sizes are at most 64: uint8 keeps the per-batch gather small
    sizes = [cb.family.sizes.astype(np.uint8) for cb in bundle.components]
    accept_rate = bundle.expected_acceptance(k, p)

    traces = []
    proposals_closed = 0
    rejections = 0
    allowed = n + max_rejects  # most proposals the budget lets us scan
    while len(traces) < n:
        need = n - len(traces)
        batch = int(min(max(4096, need / max(accept_rate, ACCEPTANCE_FLOOR) * 1.2), _BATCH_CAP))
        batch = min(batch, allowed - proposals_closed)
        if batch <= 0:
            raise RejectBudgetExhausted(
                f"no {n} length-{k} traces within {max_rejects} rejections"
            )
        hists = []
        total_len = np.zeros(batch, dtype=np.int64)
        for ch, sz in zip(chains, sizes):
            hist = _chain_states_batch(ch, k + 1, batch, rng)
            total_len += sz[hist].sum(axis=1, dtype=np.int64)
            hists.append(hist)
        acc_idx = np.flatnonzero(total_len == k)
        if len(acc_idx):
            gm = _layer_union(bundle, [hist[acc_idx] for hist in hists])
            heights = (gm != 0).sum(axis=1)
            for r in range(len(acc_idx)):
                traces.append(Trace(pair, gm[r, : heights[r]].tolist()))
                if len(traces) == n:
                    scanned = proposals_closed + int(acc_idx[r]) + 1
                    rejections = scanned - n
                    break
        if len(traces) < n:
            proposals_closed += batch
            rejections = proposals_closed - len(traces)
            if rejections > max_rejects:
                raise RejectBudgetExhausted(
                    f"no {n} length-{k} traces within {max_rejects} rejections"
                )
    return traces, rejections


# -- scalar absorbing walk -----------------------------------------------------

def _draw_index(cum, rng):
    return int(cum.searchsorted(rng.random(), side="right"))


def _step_state(chain, state, rng):
    key = complex(state, rng.random())
    return int(chain.cols[chain.P_cum.searchsorted(key, side="right")])


def _absorbing_walk(chain, rng):
    """Non-empty states of one walk below the root, up to absorption."""
    states = []
    state = _draw_index(chain.h_cum, rng)
    while state != 0:
        if len(states) >= FINITE_STEP_CAP:
            raise IterationCap(f"no absorption within {FINITE_STEP_CAP} steps")
        states.append(state)
        state = _step_state(chain, state, rng)
    return np.array(states, dtype=np.intp)


def sample_subuniform_trace(bundle, p, rng):
    """One finite trace with law proportional to ``p^{length}`` (p below root)."""
    if root_position(p, bundle.p0) is not RootPosition.BELOW:
        raise ParameterOutOfRange(
            f"subuniform finite sampling needs p strictly below {bundle.p0}"
        )
    walks = [_absorbing_walk(cb.chain(p), rng) for cb in bundle.components]
    return Trace(bundle.pair, _layer_union(bundle, walks).tolist())
