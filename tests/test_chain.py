import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings

from tracegen import (
    RandomSource,
    Trace,
    clique_chain,
    divides,
    g_vector,
    h_vector,
    parry_matrices,
    sample_subuniform_trace,
    transition_matrix,
)
from tracegen import chain as chain_mod
from tracegen.cli import main
from tracegen.counting import AT_P0_RTOL, RootPosition, root_position
from tracegen.errors import DegenerateState, ParameterOutOfRange, ReducibleMonoid
from tracegen.oracle import (
    cylinder_probability,
    iter_admissible_chains,
    path_probability,
    superset_h_g,
)

from conftest import cycle_complement, dense_parry, independence_graphs, make_bundle

PARAM_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


def test_h_fig1_at_root(fig1):
    p0 = fig1.p0
    fam = fig1.family
    h = h_vector(fam, p0)
    # raw formula leaves mu at the double p0, tiny but not 0, on the empty clique
    assert abs(h[0]) < 1e-12
    assert abs(h[fam.index_of(0b001)] - (p0 - p0 * p0)) < 1e-14   # {a}
    assert abs(h[fam.index_of(0b010)] - (p0 - p0 * p0)) < 1e-14   # {b}
    assert abs(h[fam.index_of(0b100)] - p0) < 1e-14               # {c} maximal
    assert abs(h[fam.index_of(0b011)] - p0 * p0) < 1e-14          # {a,b} maximal
    assert abs(h.sum() - 1.0) < 1e-12


def test_h_maximal_cliques_any_p(fig1, tri4):
    for bundle, p in ((fig1, 0.2), (fig1, 0.3), (tri4, 0.15)):
        fam = bundle.family
        h = h_vector(fam, p)
        for idx, mask in enumerate(fam.masks):
            is_maximal = mask != 0 and not any(
                (m & mask) == mask and m != mask for m in fam.masks
            )
            if is_maximal:
                assert abs(h[idx] - p ** int(fam.sizes[idx])) < 1e-14
        assert abs(h[0] - bundle.mu(p)) < 1e-14


@settings(max_examples=60, deadline=None)
@given(independence_graphs())
def test_h_and_g_are_the_rounded_superset_sums(graph):
    # the per-class closed form is exact, so it rounds to the same floats as
    # the defining sums, at the root, below it, and where p^|c| underflows
    bundle = make_bundle(*graph)
    fam = bundle.family
    for p in (bundle.p0, 0.5 * bundle.p0, 1e-300):
        h, g = superset_h_g(fam, p)
        assert h_vector(fam, p).tobytes() == h.tobytes()
        assert g_vector(fam, p).tobytes() == g.tobytes()


THREAD_PROBE = """
import hashlib
from conftest import cycle_complement
from tracegen import clique_chain, h_vector
bundle = cycle_complement(14)
digest = hashlib.sha256()
for p in (bundle.p0, 0.5 * bundle.p0):
    ch = clique_chain(bundle.family, p, bundle.p0)
    for array in (h_vector(bundle.family, p), ch.P_cum, ch.cols, ch.lo, ch.hi):
        digest.update(array.tobytes())
print(digest.hexdigest())
"""


def test_chain_is_independent_of_blas_threads():
    # no BLAS call feeds h, g or the sampling CDF, so their bytes do not
    # depend on how many threads OpenBLAS splits a product over
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    out = []
    for threads in ("1", "2"):
        res = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE], capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
        )
        assert res.returncode == 0, res.stderr
        out.append(res.stdout)
    assert out[0] == out[1]


def test_h_out_of_range(fig1):
    with pytest.raises(ParameterOutOfRange):
        h_vector(fig1.family, 0.0)
    with pytest.raises(ParameterOutOfRange):
        clique_chain(fig1.family, 0.5, fig1.p0)


def test_g_examples(fig1):
    p0 = fig1.p0
    fam = fig1.family
    h = h_vector(fam, p0)
    g = g_vector(fam, p0)
    assert abs(g[0] - h[0]) < 1e-15                    # p^0 = 1
    assert abs(g[fam.index_of(0b100)] - 1.0) < 1e-13   # maximal: h/p^{|c|} = 1
    assert abs(g[fam.index_of(0b011)] - 1.0) < 1e-12
    assert abs(g[fam.index_of(0b001)] - (1 - p0)) < 1e-13


def test_g_matches_successor_sum_at_root(irreducible_five):
    # at the root, g(c) equals the h-mass of the non-empty successors of c
    for bundle in irreducible_five:
        ch = bundle.boundary_chain()
        adm = bundle.family.admissibility
        for c in range(1, len(bundle.family)):
            succ_sum = float(ch.h[1:][adm[c, 1:]].sum())
            assert abs(ch.g[c] - succ_sum) < 1e-12


def test_chain_algebra_on_grid(irreducible_five):
    # probability normalization, stochastic rows, positivity, root detection
    for bundle in irreducible_five:
        p0 = bundle.p0
        for frac in PARAM_FRACTIONS:
            p = p0 if frac == 1.0 else p0 * frac
            ch = bundle.chain(p)
            assert ch.at_p0 == (frac == 1.0)
            assert abs(float(ch.h.sum()) - 1.0) < 1e-12
            # the empty clique absorbs at every p, so every row is a law
            assert ch.P[0].tolist() == [1.0] + [0.0] * (ch.n_states - 1)
            rows = ch.P.sum(axis=1)
            assert float(np.abs(rows - 1.0).max()) < 1e-12
            assert float(ch.h[1:].min()) > 0.0
            if ch.at_p0:
                assert ch.h[0] == 0.0
                assert float(np.abs(ch.P[1:, 0]).max()) == 0.0
            else:
                assert ch.h[0] > 0.0


def test_transition_fig1_entry(fig1):
    ch = fig1.boundary_chain()
    fam = fig1.family
    i_c = fam.index_of(0b100)
    i_ab = fam.index_of(0b011)
    assert abs(ch.P[i_c, i_ab] - fig1.p0 ** 2) < 1e-13


def test_transition_rejects_degenerate_rows(prod32):
    # at the product's root the b-side cliques carry zero h, so their rows
    # cannot be normalized: the construction must refuse, as it must a NaN g
    with pytest.raises(DegenerateState):
        clique_chain(prod32.family, prod32.p0, prod32.p0)
    with pytest.raises(DegenerateState, match="index 1"):
        chain_mod._check_rows(np.array([1.0, np.nan]))


def test_chain_out_of_range(fig1):
    with pytest.raises(ParameterOutOfRange):
        clique_chain(fig1.family, fig1.p0 * 1.01, fig1.p0)
    with pytest.raises(ParameterOutOfRange):
        clique_chain(fig1.family, 0.0, fig1.p0)


def test_at_p0_detection_tolerance(fig1):
    p0 = fig1.p0
    assert root_position(p0 * (1 - 1e-13), p0) is RootPosition.AT
    assert root_position(p0 * (1 + 1e-13), p0) is RootPosition.AT
    assert root_position(p0 * 0.999, p0) is RootPosition.BELOW
    assert root_position(p0 * 1.01, p0) is RootPosition.OUT_OF_RANGE
    assert root_position(0.0, p0) is RootPosition.OUT_OF_RANGE


def test_at_root_band_edge(fig1, monoid_files, capsys):
    # the lower edge of the root band is the root for the chain, so the
    # subuniform sampler and the CLI must both refuse it
    p = fig1.p0 * (1.0 - AT_P0_RTOL)
    assert root_position(p, fig1.p0) is RootPosition.AT
    assert clique_chain(fig1.family, p, fig1.p0).at_p0
    with pytest.raises(ParameterOutOfRange):
        sample_subuniform_trace(fig1, p, RandomSource(0).generator())
    argv = ["sample", "--monoid", monoid_files["fig1"], "--mode", "subuniform", "--p", repr(p)]
    assert main(argv) == 5
    assert capsys.readouterr().out == ""


def test_cylinder_consistency(irreducible_five):
    # path products telescope to p^{letters below the top layer} * h(top)
    for bundle in irreducible_five:
        for frac in PARAM_FRACTIONS:
            p = bundle.p0 if frac == 1.0 else bundle.p0 * frac
            ch = bundle.chain(p)
            for length in range(1, 5):
                for states in iter_admissible_chains(ch.family, length):
                    dev = abs(path_probability(ch, states) - cylinder_probability(ch, states))
                    assert dev < 1e-12


def test_cylinder_measure_reproduces_uniform_law(fig1, free2):
    # summing chain probabilities over all height-k continuations above x
    # recovers p0^{|x|}
    for bundle in (fig1, free2):
        ch = bundle.boundary_chain()
        fam = bundle.family
        for k in range(1, 4):
            chains = list(iter_admissible_chains(fam, k, include_empty=False))
            probs = [cylinder_probability(ch, states) for states in chains]
            prods = [Trace(bundle.pair, tuple(fam.masks[s] for s in states)) for states in chains]
            for x in set(prods):
                total = sum(
                    pr for pr, prod in zip(probs, prods) if divides(x, prod)
                )
                assert abs(total - bundle.p0 ** x.length) < 1e-10


def test_rota_inversion(fig1, tri4, cycle5):
    # h is the alternating transform of c -> p^{|c|}; summing it back over
    # supersets recovers the original weights
    for bundle in (fig1, tri4, cycle5):
        fam = bundle.family
        for p in (0.15, bundle.p0):
            h = h_vector(fam, p)
            for idx, mask in enumerate(fam.masks):
                total = sum(
                    h[j]
                    for j, sup in enumerate(fam.masks)
                    if (sup & mask) == mask
                )
                assert abs(total - p ** int(fam.sizes[idx])) < 1e-12


def test_parry_free2(free2):
    ch = free2.boundary_chain()
    starts = np.arange(1, len(free2.family))   # every non-empty clique
    pp = parry_matrices(free2.family, free2.p0, ch.g, starts)
    assert np.allclose(dense_parry(free2.family, starts, pp.B), 0.5)
    assert np.allclose(dense_parry(free2.family, starts, pp.C), 0.5)
    assert abs(pp.spectral_radius - 1.0) < 1e-9


def test_parry_identities(irreducible_five):
    for bundle in irreducible_five:
        ch = bundle.boundary_chain()
        starts = np.arange(1, len(bundle.family))   # every non-empty clique
        pp = parry_matrices(bundle.family, bundle.p0, ch.g, starts)
        assert abs(pp.spectral_radius - 1.0) < 1e-9
        B, C = dense_parry(bundle.family, starts, pp.B), dense_parry(bundle.family, starts, pp.C)
        assert float(np.abs(B @ ch.g[1:] - ch.g[1:]).max()) < 1e-12
        assert float(np.abs(C - ch.P[1:, 1:]).max()) < 1e-12
        assert float(np.abs(C.sum(axis=1) - 1.0).max()) < 1e-12


@settings(max_examples=60, deadline=None)
@given(independence_graphs())
def test_parry_entries_expand_to_the_dense_matrices(graph):
    # on the follow rows of every non-empty clique, the entries expand bit for
    # bit to the dense B and C, and the Collatz-Wielandt interval of B g / g
    # holds the spectral radius of the dense B; verify's starts, one clique
    # per (class, size) node, give the same interval
    bundle = make_bundle(*graph)
    assume(bundle.irreducible)
    fam = bundle.family
    ch = bundle.boundary_chain()
    starts = np.arange(1, len(fam))
    pp = parry_matrices(fam, bundle.p0, ch.g, starts)
    gs = ch.g[1:]
    B = np.where(fam.admissibility[1:, 1:], bundle.p0 ** fam.sizes[None, 1:], 0.0)
    C = B * gs[None, :]
    C /= gs[:, None]
    assert dense_parry(fam, starts, pp.B).tobytes() == B.tobytes()
    assert dense_parry(fam, starts, pp.C).tobytes() == C.tobytes()
    ratio = pp.Bg / gs
    lo, hi = float(ratio.min()), float(ratio.max())
    assert pp.bounds == (lo, hi)
    assert pp.spectral_radius in (lo, hi)
    nodes = parry_matrices(fam, bundle.p0, ch.g, fam.follow_classes.node_rep[1:])
    assert nodes.bounds == pp.bounds
    rho = float(np.abs(np.linalg.eigvals(B)).max())
    assert lo - 1e-12 <= rho <= hi + 1e-12


def test_parry_refuses_reducible(prod32):
    g = g_vector(prod32.family, prod32.p0)
    with pytest.raises(ReducibleMonoid):
        parry_matrices(prod32.family, prod32.p0, g, np.arange(1, len(prod32.family)))


def test_product_factorization_exact(prod32):
    # the layer laws of a product monoid factor across components, one- and
    # two-layer events alike; a component's part of a clique is its mask
    # restricted to the component's letters
    fam = prod32.family
    for p in (prod32.p0, prod32.p0 / 2):
        h_global = h_vector(fam, p)
        comp_data = [(cb.alphabet, cb.family, h_vector(cb.family, p))
                     for cb in prod32.components]

        def factored_h(mask):
            out = 1.0
            for alphabet, fam_c, h_c in comp_data:
                out *= h_c[fam_c.index_of(mask & alphabet)]
            return out

        for idx, mask in enumerate(fam.masks):
            assert abs(h_global[idx] - factored_h(mask)) < 1e-10
        for c1, c2 in iter_admissible_chains(fam, 2):
            joint = p ** int(fam.sizes[c1]) * h_global[c2]
            prod = 1.0
            for alphabet, fam_c, h_c in comp_data:
                part1, part2 = fam.masks[c1] & alphabet, fam.masks[c2] & alphabet
                prod *= p ** part1.bit_count() * h_c[fam_c.index_of(part2)]
            assert abs(joint - prod) < 1e-10


def test_bundle_chain_cache():
    bundle = make_bundle(["a", "b", "c"], [("a", "b")])
    first = bundle.chain(0.2)
    assert bundle.chain(0.2) is first
    kept = weakref.ref(first)
    del first
    second = bundle.chain(0.3)
    assert kept() is None  # another p replaces the chain
    assert bundle.chain(0.3) is second
    assert bundle.boundary_chain() is bundle.chain(bundle.p0)
    assert bundle.chain(0.3) is not second


def test_chain_forms_its_cdf_on_the_first_step(monkeypatch, fig1, prod32):
    # clique_chain and MonoidBundle.chain hold h and g alone: the sampling CDF
    # is built once, by the first step or absorbing walk, and kept
    built = []
    compact = chain_mod._compact_cdf

    def counted(*args):
        built.append(args)
        return compact(*args)

    monkeypatch.setattr(chain_mod, "_compact_cdf", counted)
    ch = clique_chain(fig1.family, fig1.p0, fig1.p0)
    below = [cb.chain(0.5 * prod32.p0) for cb in prod32.components]
    assert built == []
    starts, u = np.full(3, ch.n_states), np.array([0.1, 0.5, 0.9])
    first = ch.step(starts, u)
    assert len(built) == 1
    assert (ch.step(starts, u) == first).all() and len(built) == 1
    for _ in range(2):
        chain_mod.absorbing_layers(below, RandomSource(3).generator().random)
        assert len(built) == 1 + len(below)


def test_chain_just_below_the_root_keeps_the_empty_clique(c14):
    # g[0] is mu(p): positive and tiny just below the root, and the empty
    # clique's row divides by no g, so the chain is built and can absorb
    p = c14.p0 * (1 - 1e-10)
    assert root_position(p, c14.p0) is RootPosition.BELOW
    ch = clique_chain(c14.family, p, c14.p0)
    assert not ch.at_p0
    assert 0.0 < ch.g[0] < 1e-9 and ch.h[0] > 0.0
    assert abs(float(ch.h.sum()) - 1.0) < 1e-12


def test_chain_keeps_P_and_its_cdf_agrees(fig1):
    adm = fig1.family.admissibility
    for p in (0.2, fig1.p0):
        ch = clique_chain(fig1.family, p, fig1.p0)
        assert ch.P is ch.P
        # each state's row of the compact CDF holds the dense row's admissible
        # entries, then the start state n's row holds h's over every clique
        n = ch.n_states
        dense = np.vstack([np.cumsum(ch.P, axis=1), np.cumsum(ch.h)])
        adm_n = np.vstack([adm, np.ones(n, dtype=bool)])
        assert ch.P_cum.dtype == np.float64 and len(ch.lo) == len(ch.hi) == n + 1
        for state, (lo, hi) in enumerate(zip(ch.lo.tolist(), ch.hi.tolist())):
            assert (ch.cols[lo:hi] == np.flatnonzero(adm_n[state])).all()
            cum = ch.P_cum[lo:hi]
            assert (cum[:-1] == dense[state][adm_n[state]][:-1]).all() and cum[-1] == np.inf
        # the rows tile the CDF, each holds one +inf (its last entry), and
        # each is some state's
        rows = sorted(set(zip(ch.lo.tolist(), ch.hi.tolist())))
        assert rows[0][0] == 0 and rows[-1][1] == len(ch.P_cum)
        assert all(a[1] == b[0] for a, b in zip(rows, rows[1:]))
        assert all(lo < hi for lo, hi in rows)
        assert np.isinf(ch.P_cum).sum() == len(rows)


def test_compact_cdf_memory_on_c14():
    # the sampling CDF stores one row of admissible entries per follow class,
    # and building the chain, its follow-class table and follow rows included,
    # forms no n x n array and reads no admissibility matrix
    bundle = cycle_complement(14)
    fam = bundle.family
    n = len(fam)
    assert n == 843 and fam._classes is None
    chains = []
    for p in (bundle.p0, 0.5 * bundle.p0):
        tracemalloc.start()
        try:
            chains.append(clique_chain(fam, p, bundle.p0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * np.dtype(np.float64).itemsize
    assert fam._adm is None
    # one row per class, and the start state's row holds every clique
    classes = fam.follow_classes
    per_state = np.append(np.count_nonzero(fam.admissibility, axis=1), n)
    for ch in chains:
        _, first, row = np.unique(ch.lo, return_index=True, return_inverse=True)
        assert len(first) == len(classes.follow) == 513
        assert (row == np.append(classes.class_of, classes.start)).all()
        assert ch.P_cum.size == per_state[first].sum() < per_state.sum()
        # the columns are the family's compressed follow rows, shared, not copied
        assert ch.cols is classes.columns


def test_transition_matrix_low_level(fig1):
    fam = fig1.family
    p = 0.2
    h = h_vector(fam, p)
    g = g_vector(fam, p)
    P = transition_matrix(fam, h, g)
    assert float(np.abs(P.sum(axis=1) - 1.0).max()) < 1e-12
    adm = fam.admissibility
    assert float(np.abs(P[~adm]).max()) == 0.0
