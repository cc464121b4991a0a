"""Exact combinatorics and random generation for trace monoids.

Traces are words up to swapping adjacent independent letters, stored as
stacked layers of commuting letters (heaps of pieces).  The package counts
them exactly through the clique polynomial, realizes the uniform and
length-biased laws as a Markov chain over cliques, samples fixed-length
traces exactly uniformly by rejection, and estimates uniform average costs
by boundary sampling.
"""

from .bundle import MonoidBundle
from .chain import (
    clique_chain,
    g_vector,
    h_vector,
    parry_matrices,
    transition_matrix,
)
from .counting import (
    MobiusPolynomial,
    expected_size,
    optimal_boltzmann_parameter,
    principal_root,
)
from .estimate import (
    builtin_cost,
    estimate_expectation,
    phibar,
    theta_k,
)
from .monoid import (
    cf_admissible,
    decompose_components,
    enumerate_cliques,
    load_monoid,
    parse_monoid,
    validate_independence,
)
from .oracle import (
    chi_square_uniformity,
    congruence_closure,
    cylinder_probability,
    enumerate_Mk,
    enumerate_Mk_by_words,
    exact_uniform_expectation,
    iter_admissible_chains,
    path_probability,
    regularized_gamma_q,
)
from .sampling import (
    RandomSource,
    sample_subuniform_trace,
    sample_uniform_traces,
    topped_prefix_batch,
)
from .traces import (
    Trace,
    divides,
    normalize_word,
    parse_trace,
    project,
    serialize_trace,
    topping,
    trace_concat,
    trace_from_layers,
    trace_line,
)

__version__ = "0.1.0"
