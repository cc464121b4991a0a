"""Exact combinatorics and random generation for trace monoids.

Traces are words up to swapping adjacent independent letters, stored as
stacked layers of commuting letters (heaps of pieces).  The package counts
them exactly through the clique polynomial, realizes the uniform and
length-biased laws as a Markov chain over cliques, samples fixed-length
traces exactly uniformly by rejection, and estimates uniform average costs
by boundary sampling.  The brute-force references that the tests check the
fast code against live in ``tracegen.oracle``, which is not re-exported here.
"""

from .bundle import MonoidBundle
from .chain import (
    clique_chain,
    g_vector,
    h_vector,
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
from .sampling import (
    RandomSource,
    sample_subuniform_trace,
    sample_subuniform_traces,
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
from .verify import parry_matrices

__version__ = "0.1.0"
