from hypothesis import given, settings

from tracegen import MonoidBundle, h_vector, validate_independence
from tracegen import chain as chain_mod
from tracegen.monoid import CliqueFamily
from tracegen.oracle import cylinder_probability, iter_admissible_chains, path_probability
from tracegen.verify import (
    PARAM_GRID,
    _chain_length_cap,
    _cylinder_deviation,
    _cylinder_nodes,
    _product_factorization_deviation,
    _product_nodes,
    verification_report,
)

from conftest import independence_graphs


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
    # the node walks against every clique path, one at a time
    max_len = _chain_length_cap(len(bundle.family))
    nodes = _cylinder_nodes(bundle.family)
    for frac in PARAM_GRID:
        p = bundle.p0 if frac == 1.0 else bundle.p0 * frac
        if not bundle.irreducible:
            assert (_product_factorization_deviation(bundle, p, _product_nodes(bundle))
                    == scalar_product_deviation(bundle, p))
            if frac == 1.0:
                continue  # a reducible monoid has no root chain
        ch = bundle.chain(p)
        assert _cylinder_deviation(ch, max_len, nodes) == scalar_cylinder_deviation(ch, max_len)


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
    # C_14^c's paths grow over 585 (class, size) nodes, not its 843 cliques
    assert len(_cylinder_nodes(c14.family).rep) == 585
