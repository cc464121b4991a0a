"""Traced in-process replay of the workload commands.

Each command is replayed through the same public calls ``tracegen.cli``
makes with ``--jobs 1`` (a front-end bundle, then a fresh worker bundle on
stream 0), with spans around each module's entry points.  Calls that happen
inside the library are reached by swapping the entry-point names in the
calling module's namespace for traced wrappers for the duration of a replay;
the library source is not changed.  The replay returns the output lines the
CLI prints, so the caller can check that it did the same work.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import tracegen
from tracegen import MonoidBundle, RandomSource, sample_subuniform_trace, sample_uniform_traces
from tracegen import bundle as bundle_mod
from tracegen import chain as chain_mod
from tracegen import counting as counting_mod
from tracegen import estimate as estimate_mod
from tracegen import monoid as monoid_mod
from tracegen import verify as verify_mod
from tracegen.estimate import Moments, accumulate_moments, builtin_cost, report_from_moments
from tracegen.sampling import DEFAULT_REJECT_BUDGET, topped_prefix_batch
from tracegen.traces import trace_line
from tracegen.verify import verification_report

from tracing import Tracer, self_times, totals_by_name, under

LAMBDA_LIMIT = 10_000          # the CLI's --lambda-limit default
ESTIMATE_KEYS = ("estimate", "se", "n", "phibar_mean", "theta_mean",
                 "lambda_hat", "lambda_hat_se", "lambda_exact")


def _f17(x):
    return format(float(x), ".17g")


def _count_chain(tr, chain):
    tr.count("chain.builds", 1)
    tr.count("chain.matrix_bytes", chain.P.nbytes + chain.P_cum.nbytes)


# (module, attribute, span name, counter hook)
ENTRY_POINTS = (
    (bundle_mod, "load_monoid", "monoid.load_monoid", None),
    (bundle_mod, "enumerate_cliques", "monoid.enumerate_cliques",
     lambda tr, fam: tr.peak("monoid.cliques", len(fam))),
    (bundle_mod, "mobius_polynomial", "counting.mobius_polynomial", None),
    (bundle_mod, "principal_root", "counting.principal_root", None),
    (bundle_mod, "optimal_boltzmann_parameter", "counting.optimal_parameter", None),
    (bundle_mod, "growth_coefficients", "counting.growth", None),
    (bundle_mod, "clique_chain", "chain.clique_chain", _count_chain),
    (chain_mod, "h_vector", "chain.h_vector", None),
    (chain_mod, "transition_matrix", "chain.transition_matrix", None),
    (estimate_mod, "topped_prefix_batch", "estimate.prefix", None),
    (verify_mod, "parry_matrices", "verify.parry", None),
)


def _traced(tr, name, fn, hook):
    def wrapper(*args, **kwargs):
        with tr.span(name):
            out = fn(*args, **kwargs)
        if hook is not None:
            hook(tr, out)
        return out

    return wrapper


@contextmanager
def instrumented(tr):
    """Route the library's entry points through spans of ``tr``, then restore them."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in ENTRY_POINTS]
    adm = monoid_mod.CliqueFamily.admissibility

    def admissibility(family):
        if family._adm is not None:
            return adm.fget(family)
        with tr.span("monoid.admissibility"):
            out = adm.fget(family)
        tr.count("monoid.admissibility_bytes", out.nbytes)
        return out

    try:
        for (mod, attr, name, hook), (_, _, fn) in zip(ENTRY_POINTS, saved):
            setattr(mod, attr, _traced(tr, name, fn, hook))
        monoid_mod.CliqueFamily.admissibility = property(admissibility)
        yield tr
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
        monoid_mod.CliqueFamily.admissibility = adm


def _clear_caches():
    """Forget memoized results so every replay does a fresh process's work."""
    for mod in (counting_mod, chain_mod, monoid_mod, bundle_mod):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _sample(tr, cmd, path, seed):
    front = MonoidBundle.from_file(path)
    expected = None
    if cmd.mode == "boundary":
        p = front.p0
    elif cmd.mode == "subuniform":
        p = cmd.p
        front.p0  # the CLI range-checks p against the root
    else:
        p = front.optimal_parameter(cmd.k)
        expected = front.expected_acceptance(cmd.k, p)
    worker = MonoidBundle.from_file(path)
    rng = RandomSource(seed, 0).generator()
    if cmd.mode == "boundary":
        with tr.span("sampling.walk"):
            rows = topped_prefix_batch(worker, cmd.k, cmd.n, rng)
        tr.count("sampling.walker_steps", cmd.n * cmd.k * len(worker.components))
        letters = worker.pair.letters_of_mask
        with tr.span("traces.serialize"):
            lines = [json.dumps([letters(int(m)) for m in row], separators=(",", ":"))
                     for row in rows]
    else:
        if cmd.mode == "subuniform":
            with tr.span("sampling.subuniform"):
                traces = [sample_subuniform_trace(worker, p, rng) for _ in range(cmd.n)]
            tr.count("sampling.subuniform_layers", sum(t.height for t in traces))
        else:
            with tr.span("sampling.reject"):
                traces, rejections = sample_uniform_traces(
                    worker, cmd.k, cmd.n, rng, max_rejects=DEFAULT_REJECT_BUDGET)
            tr.count("sampling.proposals", cmd.n + rejections)
            tr.count("sampling.acceptances", cmd.n)
            tr.peak("sampling.expected_acceptance", expected)
        with tr.span("traces.serialize"):
            lines = [trace_line(t) for t in traces]
    tr.count("traces.output_bytes", sum(len(line) + 1 for line in lines))
    return lines


def _estimate(tr, cmd, path, seed):
    front = MonoidBundle.from_file(path)
    builtin_cost(cmd.phi, front.pair)
    front.irreducible  # the CLI warns on reducible monoids
    worker = MonoidBundle.from_file(path)
    phi = builtin_cost(cmd.phi, worker.pair)
    rng = RandomSource(seed, 0).generator()
    with tr.span("estimate.accumulate"):
        moments = accumulate_moments(worker, cmd.k, phi, cmd.n, rng)
    tr.count("estimate.draws", moments.n)
    tr.count("estimate.divisors", int(moments.s_theta))
    report = report_from_moments(Moments().merge(moments), cmd.k, front.p0)
    lines = [
        f"estimate {_f17(report.estimate)}",
        f"se {_f17(report.standard_error)}",
        f"n {report.sample_count}",
        f"phibar_mean {_f17(report.phibar_mean)}",
        f"theta_mean {_f17(report.theta_mean)}",
        f"lambda_hat {_f17(report.lambda_hat)}",
        f"lambda_hat_se {_f17(report.lambda_hat_se)}",
    ]
    if cmd.k <= LAMBDA_LIMIT:
        lines.append(f"lambda_exact {front.lambda_k(cmd.k)}")
    return lines


def _verify(tr, cmd, path, seed):
    bundle = MonoidBundle.from_file(path)
    with tr.span("verify.report"):
        checks = verification_report(bundle)
    lines = [f"check {c.name} {_f17(c.value)} tol {_f17(c.tolerance)} {'ok' if c.ok else 'FAIL'}"
             for c in checks]
    lines.append(f"result {'ok' if all(c.ok for c in checks) else 'fail'}")
    return lines


REPLAYS = {"sample": _sample, "estimate": _estimate, "verify": _verify}


def replay(commands, paths, seed, trace_id=0):
    """Run ``commands`` traced; returns the tracer and each command's output lines."""
    _clear_caches()
    tr = Tracer(trace_id)
    outputs = []
    with instrumented(tr), tr.span("replay"):
        for cmd in commands:
            with tr.span(f"cli.{cmd.kind}"):
                outputs.append(REPLAYS[cmd.kind](tr, cmd, paths[cmd.spec], seed))
    return tr, outputs


def comparable_lines(cmd, text):
    """The lines of CLI output that a replay must reproduce byte for byte."""
    lines = text.split("\n")[1:-1]
    if cmd.kind == "estimate":
        keep = set(ESTIMATE_KEYS)
        return [line for line in lines if line.partition(" ")[0] in keep]
    return lines


SELF_TIMED = (
    "monoid.load_monoid", "monoid.enumerate_cliques", "monoid.admissibility",
    "counting.mobius_polynomial", "counting.principal_root", "counting.optimal_parameter",
    "counting.growth", "chain.h_vector", "chain.transition_matrix", "chain.clique_chain",
    "sampling.walk", "sampling.reject", "sampling.subuniform", "estimate.prefix",
    "traces.serialize", "verify.parry",
)


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tr):
    """Per-layer times, counts and rates of one traced replay."""
    selfs = self_times(tr.spans)
    own = totals_by_name(tr.spans, selfs)
    total = totals_by_name(tr.spans)
    c = tr.counts
    m = {f"{name}_s": own.get(name, 0.0) for name in SELF_TIMED}
    m["estimate.accumulate_s"] = total.get("estimate.accumulate", 0.0)
    m["estimate.lift_s"] = own.get("estimate.accumulate", 0.0)
    m["verify.report_s"] = own.get("verify.report", 0.0)
    m["verify.chains_s"] = sum(s.duration for s in under(tr.spans, "verify.report")
                               if s.name == "chain.clique_chain")
    for name in ("monoid.cliques", "monoid.admissibility_bytes", "chain.builds",
                 "chain.matrix_bytes", "sampling.walker_steps", "sampling.proposals",
                 "sampling.acceptances", "sampling.expected_acceptance",
                 "sampling.subuniform_layers", "estimate.divisors", "traces.output_bytes"):
        m[name] = c.get(name, 0)
    m["sampling.acceptance_ratio"] = (c["sampling.acceptances"] / c["sampling.proposals"]
                                      if c.get("sampling.proposals") else 0.0)
    m["sampling.steps_per_s"] = _rate(m["sampling.walker_steps"], m["sampling.walk_s"])
    m["sampling.proposals_per_s"] = _rate(m["sampling.proposals"], m["sampling.reject_s"])
    m["sampling.subuniform_layers_per_s"] = _rate(m["sampling.subuniform_layers"],
                                                  m["sampling.subuniform_s"])
    m["estimate.divisors_per_s"] = _rate(m["estimate.divisors"], m["estimate.lift_s"])
    draws = c.get("estimate.draws", 0)
    m["estimate.lift_us_per_draw"] = m["estimate.lift_s"] / draws * 1e6 if draws else 0.0
    m["traces.serialize_bytes_per_s"] = _rate(m["traces.output_bytes"], m["traces.serialize_s"])
    root = next(s for s in tr.spans if s.name == "replay")
    glue = sum(selfs[s.span_id] for s in tr.spans
               if s.name == "replay" or s.name.startswith("cli."))
    m["trace.unaccounted_share"] = glue / root.duration
    m["trace.spans"] = len(tr.spans)
    m["trace.replay_s"] = root.duration
    return m


def dominant_layer(metrics):
    """The layer with the largest self time."""
    times = {k: v for k, v in metrics.items()
             if k.endswith("_s") and not k.endswith("_per_s")
             and k not in ("estimate.accumulate_s", "verify.chains_s", "trace.replay_s")}
    return max(times, key=times.get)
