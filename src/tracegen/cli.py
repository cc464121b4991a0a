"""Command line: inspect, sample, count, estimate, verify.

Output is line oriented: one ``#`` metadata header, then one object or one
``key value`` pair per line, floats with 17 significant digits.  Runs are
bit-stable for a fixed command line: randomness is keyed by (seed, stream)
and workers merge in stream order.  Each command returns its exit code and
all of its lines, and ``main`` alone writes them, so a command that fails
prints nothing.  Exit codes: 2 usage, 3 bad data, 4 budget exceeded or out of
memory, 5 numeric failure, 1 failed verification, 141 (128 + SIGPIPE) when
the reader closes stdout early, which prints nothing more.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bundle import MonoidBundle
from .chain import FINITE_STEP_CAP
from .counting import RootPosition, expected_size, root_position
from .errors import BudgetError, IterationCap, ParameterOutOfRange, TracegenError
from .estimate import Moments, accumulate_moments, builtin_cost, report_from_moments
from .monoid import DEFAULT_CLIQUE_CAP
from .sampling import (
    RNG_ALGORITHM,
    DEFAULT_REJECT_BUDGET,
    RandomSource,
    sample_subuniform_traces,
    sample_uniform_traces,
    topped_prefix_batch,
)
from .traces import layers_line, trace_line
from .verify import verification_report

ENV_CLIQUE_CAP = "TRACEGEN_CLIQUE_CAP"
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a tool killed by the signal reports
_WRITE_BLOCK = 1 << 12    # output lines joined into one stdout write


def _f17(x):
    return format(float(x), ".17g")


def _f18(x):
    return format(float(x), ".18g")


def _bundle(ns):
    raw = os.environ.get(ENV_CLIQUE_CAP)
    try:
        cap = positive_int(raw) if raw else DEFAULT_CLIQUE_CAP
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"{ENV_CLIQUE_CAP} must be an integer of at least 1, got {raw!r}") from None
    return MonoidBundle.from_file(ns.monoid, clique_cap=cap)


def _run_workers(worker, arg_list, jobs):
    if jobs <= 1 or len(arg_list) <= 1:
        return [worker(a) for a in arg_list]
    # imported here: the pool's import adds 20 to 40 ms to every one-process run
    from concurrent.futures import ProcessPoolExecutor
    # streams are keyed by --jobs, not by the pool, so the pool forks no more
    # processes than there are arguments and usable cores
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    workers = min(len(arg_list), len(affinity(0)) if affinity else os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, arg_list))


def _stream(args):
    bundle, task, count, seed, stream, params = args
    return task(bundle, count, RandomSource(seed, stream).generator(), *params)


def _fan_out(ns, bundle, task, *params):
    """``task(bundle, count, rng, *params)`` on each non-empty stream ``w`` of
    ``--jobs``, drawing from ``(seed, w)``; results come back in stream order.
    One job runs on ``bundle`` itself, a pool on a pickled copy of it."""
    base, extra = divmod(ns.n, ns.jobs)
    args = [(bundle, task, base + (w < extra), ns.seed, w, params)
            for w in range(ns.jobs) if base + (w < extra)]
    return _run_workers(_stream, args, ns.jobs)


# -- info ----------------------------------------------------------------------

def cmd_info(ns):
    bundle = _bundle(ns)
    lines = [f"# tracegen info monoid={ns.monoid}", "letters " + " ".join(bundle.pair.letters)]
    comps = bundle.components
    lines.append(f"components {len(comps)}")
    for ci, cb in enumerate(comps):
        letters = ",".join(bundle.pair.letters_of_mask(cb.alphabet))
        lines.append(f"component {ci} letters={letters} p0={_f18(cb.p0)}")
    mu = bundle.mu.coefficients
    lines.append(f"cliques {sum(map(abs, mu))}")  # |mu_j| counts the cliques of size j
    lines.append("mobius " + " ".join(map(str, mu)))
    lines.append(f"p0 {_f18(bundle.p0)}")
    table = bundle.growth(ns.k)
    lines += [f"lambda {k} {table[k]}" for k in range(ns.k + 1)]
    return 0, lines


# -- sample ----------------------------------------------------------------------

def _boundary_lines(bundle, count, rng, k):
    rows = topped_prefix_batch(bundle, k, count, rng)
    return [layers_line(bundle.pair, row) for row in rows.tolist()]


def _subuniform_lines(bundle, count, rng, p):
    return [trace_line(t) for t in sample_subuniform_traces(bundle, p, count, rng)]


def _exact_lines(bundle, count, rng, k, max_rejects):
    traces, _ = sample_uniform_traces(bundle, k, count, rng, max_rejects=max_rejects)
    return [trace_line(t) for t in traces]


def cmd_sample(ns):
    bundle = _bundle(ns)
    mode = ns.mode
    k = ns.k
    p = ns.p
    if mode in ("boundary", "exact-k") and k is None:
        raise UsageError(f"mode {mode} needs --k")
    if mode == "boundary":
        p = bundle.p0
    elif mode == "subuniform":
        if p is None:
            raise UsageError("mode subuniform needs --p")
        if root_position(p, bundle.p0) is not RootPosition.BELOW:
            raise ParameterOutOfRange(
                f"subuniform sampling needs 0 < p < p0 = {_f17(bundle.p0)}"
            )
        # a trace of s letters has at least s / (max clique size) layers: refuse
        # a walk whose mean length is surely above the step cap before it starts
        if any(expected_size(cb.mu, p, cb.p0) > FINITE_STEP_CAP * cb.family.max_clique_size
               for cb in bundle.components):
            raise IterationCap(f"the mean walk at p={_f17(p)} exceeds {FINITE_STEP_CAP} steps")
    else:
        p = bundle.optimal_parameter(k) if k > 0 else 0.0

    header = (
        f"# tracegen sample mode={mode} monoid={ns.monoid} k={k if k is not None else '-'}"
        f" p={_f17(p)} n={ns.n} seed={ns.seed} jobs={ns.jobs} rng={RNG_ALGORITHM}"
    )
    if mode == "exact-k" and k > 0:
        header += f" expected_acceptance={_f17(bundle.expected_acceptance(k, p))}"
    if mode == "boundary":
        results = _fan_out(ns, bundle, _boundary_lines, k)
    elif mode == "subuniform":
        results = _fan_out(ns, bundle, _subuniform_lines, p)
    else:
        results = _fan_out(ns, bundle, _exact_lines, k, ns.max_rejects)
    lines = [header]
    for stream_lines in results:
        lines += stream_lines
    return 0, lines


# -- count -----------------------------------------------------------------------

def cmd_count(ns):
    k = ns.k
    if ns.mc and (k < 1 or ns.n < 2):
        raise UsageError("--mc needs --k at least 1 and --n at least 2")
    bundle = _bundle(ns)
    lines = [f"# tracegen count monoid={ns.monoid} k={k} seed={ns.seed} n={ns.n} jobs={ns.jobs}",
             f"lambda {k} {bundle.lambda_k(k)}"]
    if ns.exact:
        from . import oracle  # the brute-force reference, loaded only here
        lines.append(f"lambda_oracle {k} {sum(1 for _ in oracle.iter_Mk(bundle.family, k))}")
    if ns.mc:
        report = report_from_moments(_merged_moments(ns, bundle, "one"), k, bundle.p0)
        lines.append(f"lambda_mc {k} {_f17(report.lambda_hat)}")
        lines.append(f"lambda_mc_se {k} {_f17(report.lambda_hat_se)}")
    return 0, lines


# -- estimate ---------------------------------------------------------------------

def _moments(bundle, count, rng, k, phi_name):
    # the cost is resolved here: its lambdas do not pickle
    return accumulate_moments(bundle, k, builtin_cost(phi_name, bundle.pair), count, rng)


def _merged_moments(ns, bundle, phi_name):
    merged = Moments()
    for m in _fan_out(ns, bundle, _moments, ns.k, phi_name):
        merged.merge(m)
    return merged


def cmd_estimate(ns):
    if ns.k < 1 or ns.n < 2:
        raise UsageError("estimate needs --k at least 1 and --n at least 2")
    bundle = _bundle(ns)
    builtin_cost(ns.phi, bundle.pair)  # validate the name before spawning work
    report = report_from_moments(_merged_moments(ns, bundle, ns.phi), ns.k, bundle.p0)
    lines = [f"# tracegen estimate monoid={ns.monoid} k={ns.k} phi={ns.phi} n={ns.n}"
             f" seed={ns.seed} jobs={ns.jobs} rng={RNG_ALGORITHM}"]
    if not bundle.irreducible:
        lines.append("# warning reducible monoid: divisor counts are unbounded in expectation")
    lines += [f"estimate {_f17(report.estimate)}",
              f"se {_f17(report.standard_error)}",
              f"n {report.sample_count}",
              f"phibar_mean {_f17(report.phibar_mean)}",
              f"theta_mean {_f17(report.theta_mean)}",
              f"lambda_hat {_f17(report.lambda_hat)}",
              f"lambda_hat_se {_f17(report.lambda_hat_se)}"]
    if ns.k <= ns.lambda_limit:
        lam = bundle.lambda_k(ns.k)
        norm = bundle.p0 ** ns.k * lam
        se = report.phibar_sd / (report.sample_count ** 0.5) / norm
        lines += [f"lambda_exact {lam}",
                  f"estimate_exact_norm {_f17(report.phibar_mean / norm)}",
                  f"se_exact_norm {_f17(se)}"]
    return 0, lines


# -- verify -----------------------------------------------------------------------

def cmd_verify(ns):
    checks = verification_report(_bundle(ns))
    lines = [f"# tracegen verify monoid={ns.monoid}"]
    lines += [f"check {c.name} {_f17(c.value)} tol {_f17(c.tolerance)} {'ok' if c.ok else 'FAIL'}"
              for c in checks]
    ok = all(c.ok for c in checks)
    lines.append(f"result {'ok' if ok else 'fail'}")
    return (0 if ok else 1), lines


# -- plumbing ----------------------------------------------------------------------

class UsageError(Exception):
    pass


def nonnegative_int(text):
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {k}")
    return k


def positive_int(text):
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {k}")
    return k


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tracegen",
        description="Exact counting and random generation for trace monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--monoid", required=True, help="monoid spec file (JSON)")

    p = sub.add_parser("info", help="alphabet, components, clique polynomial, counts")
    common(p)
    p.add_argument("--k", type=nonnegative_int, default=10,
                   help="print counts up to this length")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("sample", help="random traces or boundary prefixes")
    common(p)
    p.add_argument("--mode", choices=["boundary", "subuniform", "exact-k"], required=True)
    p.add_argument("--k", type=nonnegative_int, default=None,
                   help="prefix height / target length")
    p.add_argument("--p", type=float, default=None, help="parameter for subuniform mode")
    p.add_argument("--n", type=nonnegative_int, default=1, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--max-rejects", type=nonnegative_int, default=DEFAULT_REJECT_BUDGET)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("count", help="exact and Monte-Carlo counts of length-k traces")
    common(p)
    p.add_argument("--k", type=nonnegative_int, required=True)
    p.add_argument("--exact", action="store_true", help="cross-check by enumeration")
    p.add_argument("--mc", action="store_true", help="add a Monte-Carlo estimate")
    p.add_argument("--n", type=nonnegative_int, default=10000, help="samples for --mc")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("estimate", help="uniform average of a cost over length-k traces")
    common(p)
    p.add_argument("--k", type=nonnegative_int, required=True)
    p.add_argument(
        "--phi",
        default="height",
        help="height | first-layer | one | prefix:<serialized trace>",
    )
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--lambda-limit", type=nonnegative_int, default=10000,
                   help="report the exact count when k is at most this")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("verify", help="recompute the chain identities and report")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        code, lines = ns.func(ns)
        # the one stdout writer: a command returns all of its lines, so one
        # that fails anywhere has written nothing
        for i in range(0, len(lines), _WRITE_BLOCK):
            sys.stdout.write("\n".join(lines[i:i + _WRITE_BLOCK]) + "\n")
        sys.stdout.flush()  # a closed stdout shows up here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: later flushes, the one at exit too, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except UsageError as exc:
        parser.error(str(exc))  # exits 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TracegenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return BudgetError.exit_code


if __name__ == "__main__":
    sys.exit(main())
