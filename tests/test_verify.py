import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracegen import MonoidBundle, h_vector, validate_independence
from tracegen import chain as chain_mod
from tracegen import cli
from tracegen import monoid as monoid_mod
from tracegen import verify as verify_mod
from tracegen.monoid import CliqueFamily, parse_monoid, row_blocks
from tracegen.oracle import cylinder_probability, iter_admissible_chains, path_probability
from tracegen.verify import (
    PARAM_GRID,
    _chain_length_cap,
    _product_factorization_deviation,
    _product_nodes,
    _walk,
    verification_report,
)

from conftest import cycle_complement, independence_graphs

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_stdout.json"


def scalar_cylinder_deviation(chain, max_len):
    """One path at a time through the oracle helpers."""
    worst = 0.0
    for length in range(1, max_len + 1):
        for states in iter_admissible_chains(chain.family, length):
            dev = abs(path_probability(chain, states) - cylinder_probability(chain, states))
            worst = max(worst, dev)
    return worst


def scalar_product_deviation(bundle, p):
    """One clique and one admissible pair at a time, component by component;
    a component's part of a clique is the clique masked by its letters."""
    fam = bundle.family
    h_global = h_vector(fam, p)
    h_comp = [h_vector(cb.family, p) for cb in bundle.components]

    def component_h(ci, mask):
        cb = bundle.components[ci]
        return h_comp[ci][cb.family.index_of(mask & cb.alphabet)]

    worst = 0.0
    for idx, mask in enumerate(fam.masks):
        prod = 1.0
        for ci in range(len(bundle.components)):
            prod *= component_h(ci, mask)
        worst = max(worst, abs(h_global[idx] - prod))
    for c1, c2 in iter_admissible_chains(fam, 2):
        left = p ** int(fam.sizes[c1]) * h_global[c2]
        prod = 1.0
        for ci, cb in enumerate(bundle.components):
            prod *= p ** (fam.masks[c1] & cb.alphabet).bit_count() * component_h(ci, fam.masks[c2])
        worst = max(worst, abs(left - prod))
    return worst


def assert_matches_scalar(bundle):
    # the walks from one clique per node against every clique path, one at a time
    max_len = _chain_length_cap(len(bundle.family))
    for frac in PARAM_GRID:
        p = bundle.p0 if frac == 1.0 else bundle.p0 * frac
        if not bundle.irreducible:
            assert (_product_factorization_deviation(bundle, p, _product_nodes(bundle))
                    == scalar_product_deviation(bundle, p))
            if frac == 1.0:
                continue  # a reducible monoid has no root chain
        ch = bundle.chain(p)
        walked = _walk([ch], max_len)["cylinder_max_dev"]
        assert max(walked) == scalar_cylinder_deviation(ch, max_len)


def test_deviations_match_scalar_on_fixtures(irreducible_five, prod32, prod22):
    for bundle in [*irreducible_five, prod32, prod22]:
        assert_matches_scalar(bundle)


@settings(max_examples=60, deadline=None)
@given(independence_graphs())
def test_deviations_match_scalar_on_random_monoids(graph):
    # same arithmetic in the same order: equal, not approximately equal
    letters, pairs = graph
    assert_matches_scalar(MonoidBundle(validate_independence(letters, pairs, symmetric_closure=True)))


COMMON_CHECKS = ["h_sum_max_dev", "row_sum_max_dev", "cylinder_max_dev"]
IRREDUCIBLE_CHECKS = [*COMMON_CHECKS, "h_min_nonempty_at_root", "parry_spectral_radius",
                      "parry_Bg_dev", "parry_CP_dev"]
REDUCIBLE_CHECKS = [*COMMON_CHECKS, "product_factorization_dev_p0.5",
                    "product_factorization_dev_p1.0"]


@settings(max_examples=60, deadline=None)
@given(independence_graphs())
def test_verification_report_passes_on_random_monoids(graph):
    letters, pairs = graph
    bundle = MonoidBundle(validate_independence(letters, pairs, symmetric_closure=True))
    checks = verification_report(bundle)
    want = IRREDUCIBLE_CHECKS if bundle.irreducible else REDUCIBLE_CHECKS
    assert [c.name for c in checks] == want
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_verification_report_builds_no_sampling_cdf(monkeypatch, fig1, path4, prod32, c14):
    # verify reads the chain law (h and g) alone, one transition row per
    # follow class: with _compact_cdf, transition_matrix and the dense
    # admissibility made to raise, each report is the same
    bundles = (fig1, path4, prod32, c14)
    want = [verification_report(b) for b in bundles]

    def refuse(*args, **kwargs):
        raise AssertionError("verify built a sampling CDF or a dense n x n matrix")

    monkeypatch.setattr(chain_mod, "_compact_cdf", refuse)
    monkeypatch.setattr(chain_mod, "transition_matrix", refuse)
    monkeypatch.setattr(CliqueFamily, "admissibility", property(refuse))
    for bundle, checks in zip(bundles, want):
        assert verification_report(bundle) == checks
    # C_14^c's paths start from its 585 (class, size) nodes, not its 843 cliques
    assert len(c14.family.follow_classes.node_rep) == 585


def test_verification_report_scans_the_follow_relation_once(monkeypatch, c14):
    # the follow relation is scanned once per family, when its follow classes
    # are built, and a report reads those compressed rows: on a fresh C_14^c
    # bundle one scan for the whole report and no class_columns call
    built = []
    columns = []

    class Counted(monoid_mod.FollowClasses):
        def __init__(self, family):
            built.append(family)
            super().__init__(family)

    monkeypatch.setattr(monoid_mod, "FollowClasses", Counted)
    monkeypatch.setattr(CliqueFamily, "class_columns", lambda family, k: columns.append(k))
    bundle = MonoidBundle(c14.pair)
    verification_report(bundle)
    assert built == [bundle.family]
    assert columns == []


def test_verification_report_finds_each_blocks_edges_once(monkeypatch, c14):
    # the chains at the four grid parameters share one walk: on a fresh C_14^c
    # bundle (585 nodes, in 7 start blocks of whole rows, paths of length 2)
    # the follow edges are found once per block for the walk and once for the
    # Parry step, not once per chain per block (28)
    calls = []
    real = verify_mod._follow_edges

    def counted(classes, cliques):
        calls.append(len(cliques))
        return real(classes, cliques)

    monkeypatch.setattr(verify_mod, "_follow_edges", counted)
    checks = verification_report(MonoidBundle(c14.pair))
    assert all(c.ok for c in checks)
    assert 0 < len(calls) <= 14


def skew_one_class(monkeypatch):
    """Make ``verify.clique_chain`` scale each chain's ``g`` on the cliques of
    follow class 1, the first non-empty one, by 1 + 1e-6."""
    real = verify_mod.clique_chain

    def skewed(family, p, p0):
        chain = real(family, p, p0)
        g = chain.g.copy()
        g[family.follow_classes.class_of == 1] *= 1 + 1e-6
        return dataclasses.replace(chain, g=g)

    monkeypatch.setattr(verify_mod, "clique_chain", skewed)


def test_a_wrong_chain_fails_the_report(monkeypatch, fig1, c14):
    # a g off by 1e-6 on one follow class breaks its rows' sums, the paths
    # through them and both Parry identities: on fig1 (paths of length 4, one
    # start block) and on C_14^c (paths of length 2, seven start blocks)
    skew_one_class(monkeypatch)
    for bundle in (fig1, c14):
        failed = {c.name for c in verification_report(bundle) if not c.ok}
        assert {"row_sum_max_dev", "cylinder_max_dev", "parry_Bg_dev",
                "parry_CP_dev"} <= failed, bundle.family.alphabet


def test_a_wrong_chain_fails_verify(monkeypatch, monoid_files, capsys):
    skew_one_class(monkeypatch)
    assert cli.main(["verify", "--monoid", monoid_files["fig1"]]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "result fail"


def test_row_blocks_hold_whole_rows(monkeypatch):
    # rows of 2, 1, 7, 0 and 2 entries in blocks of at most 3: the 7-entry row
    # is a block of its own, and the empty row joins the next one
    monkeypatch.setattr(monoid_mod, "_BLOCK", 3)
    assert list(row_blocks([0, 2, 3, 10, 10, 12])) == [(0, 2), (2, 3), (3, 5)]
    assert list(row_blocks(np.array([0]))) == []


def report_at_block(pair, block):
    """The report of a fresh bundle of ``pair``, with its follow classes and
    checks all built at a block size of ``block`` entries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monoid_mod, "_BLOCK", block)
        bundle = MonoidBundle(pair)
        return verification_report(bundle), bundle.family.follow_classes


def assert_blocks_change_nothing(pair, blocks):
    want, classes = report_at_block(pair, monoid_mod._BLOCK)
    for block in blocks:
        got, got_classes = report_at_block(pair, block)
        assert got == want
        for name in ("offsets", "columns", "counts"):
            a, b = getattr(classes, name), getattr(got_classes, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_blocks_change_no_check(fig1, prod32, c14):
    # every check is a maximum over whole rows, so a block of one entry (every
    # row wider than it), of a few, or of a few hundred gives the same report
    # as the default, and the follow rows are the same arrays
    # mix7: three components whose letters interleave, from the golden file's specs
    spec = json.loads(GOLDEN.read_text(encoding="utf-8"))["specs"]["mix7.json"]
    mix7 = parse_monoid(json.loads(spec))
    for pair in (fig1.pair, prod32.pair, mix7):
        assert_blocks_change_nothing(pair, (1, 5, 300))
    # C_14^c at block sizes cutting its 84 221 follow entries into many blocks
    assert len(list(row_blocks(c14.family.follow_classes.offsets))) > 1
    assert_blocks_change_nothing(c14.pair, (1, 777))


@settings(max_examples=60, deadline=None)
@given(independence_graphs(), st.integers(1, 40))
def test_blocks_change_no_check_on_random_monoids(graph, block):
    letters, pairs = graph
    assert_blocks_change_nothing(validate_independence(letters, pairs, symmetric_closure=True),
                                 (block,))


def test_verification_report_holds_blocks_not_the_relation():
    # C_18^c's follow relation holds 2 148 508 entries (8.2 MiB as int32);
    # the report forms nothing that long, and every check reads one block at
    # a time: formed whole, its arrays peaked at 178 MiB
    bundle = cycle_complement(18)
    assert len(bundle.family.follow_classes.columns) == 2_148_508
    assert bundle.p0 > 0
    tracemalloc.start()
    try:
        checks = verification_report(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.ok for c in checks)
    assert peak < 40 << 20


def test_verification_report_forms_no_array_as_long_as_the_relation():
    # with C_18^c's follow classes built first, the report holds nothing
    # CSR-sized: its paths step along the follow rows themselves, so its peak
    # is a few blocks and the family-sized vectors, 1.7 MiB, well under the
    # relation's own 8.2 MiB
    bundle = cycle_complement(18)
    classes = bundle.family.follow_classes
    assert len(classes.columns) == 2_148_508
    assert bundle.p0 > 0
    tracemalloc.start()
    try:
        checks = verification_report(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.name for c in checks] == IRREDUCIBLE_CHECKS
    assert all(c.ok for c in checks)
    assert peak < 4 << 20
