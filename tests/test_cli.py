import hashlib
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from tracegen import MonoidBundle, RandomSource, load_monoid, parse_trace, validate_independence
from tracegen.errors import CliqueExplosion, DoubleOverflow, NoRootFound
from tracegen.estimate import accumulate_moments, builtin_cost

from conftest import block_spec


def run_cli(*args, env=None, timeout=300, preexec_fn=None):
    full_env = os.environ.copy()
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "tracegen", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


FIG1_PAIR = validate_independence(["a", "b", "c"], [("a", "b")], symmetric_closure=True)


def body_lines(stdout):
    return [l for l in stdout.splitlines() if not l.startswith("#")]


def kv(stdout):
    out = {}
    for line in body_lines(stdout):
        parts = line.split()
        out[" ".join(parts[:-1])] = parts[-1]
    return out


def test_info_fig1(monoid_files):
    res = run_cli("info", "--monoid", monoid_files["fig1"], "--k", "8")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "letters a b c" in lines
    assert "components 1" in lines
    assert "mobius 1 -3 1" in lines
    assert "cliques 5" in lines
    assert any(l.startswith("p0 0.381966011250105") for l in lines)
    assert "lambda 8 2584" in lines


def test_info_product(monoid_files):
    res = run_cli("info", "--monoid", monoid_files["prod32"], "--k", "2")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert "components 2" in lines
    assert any(l.startswith("component 0 letters=a1,a2,a3 p0=0.3333333") for l in lines)
    assert any(l.startswith("component 1 letters=b1,b2 p0=0.5") for l in lines)
    assert any(l.startswith("p0 0.3333333") for l in lines)
    assert "lambda 2 19" in lines


def test_sample_exact_k_deterministic_and_valid(monoid_files):
    args = ("sample", "--monoid", monoid_files["fig1"], "--mode", "exact-k",
            "--k", "5", "--n", "3", "--seed", "7")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte identical
    lines = body_lines(first.stdout)
    assert len(lines) == 3
    for line in lines:
        t = parse_trace(FIG1_PAIR, line)
        assert t.length == 5
    assert "expected_acceptance=" in first.stdout.splitlines()[0]


def test_sample_boundary_round_trip(monoid_files):
    res = run_cli("sample", "--monoid", monoid_files["fig1"], "--mode", "boundary",
                  "--k", "4", "--n", "5", "--seed", "1")
    assert res.returncode == 0
    lines = body_lines(res.stdout)
    assert len(lines) == 5
    for line in lines:
        t = parse_trace(FIG1_PAIR, line)  # validates the layer chain
        assert t.height == 4


def test_sample_boundary_product(monoid_files):
    res = run_cli("sample", "--monoid", monoid_files["prod32"], "--mode", "boundary",
                  "--k", "3", "--n", "4", "--seed", "5")
    assert res.returncode == 0
    assert len(body_lines(res.stdout)) == 4


def test_sample_subuniform(monoid_files):
    args = ("sample", "--monoid", monoid_files["fig1"], "--mode", "subuniform",
            "--p", "0.2", "--n", "10", "--seed", "3")
    first = run_cli(*args)
    assert first.returncode == 0
    assert run_cli(*args).stdout == first.stdout
    for line in body_lines(first.stdout):
        parse_trace(FIG1_PAIR, line)


def test_sample_subuniform_at_tiny_p_is_quiet(monoid_files):
    # p^|c| underflows to 0 at p = 1e-300, yet h and g need no division by it:
    # no warning, and every draw absorbs at once into the empty trace
    res = run_cli("sample", "--monoid", monoid_files["fig1"], "--mode", "subuniform",
                  "--p", "1e-300", "--n", "3")
    assert (res.returncode, res.stderr) == (0, "")
    assert body_lines(res.stdout) == ["[]"] * 3


def test_sample_jobs_deterministic(monoid_files):
    args = ("sample", "--monoid", monoid_files["fig1"], "--mode", "exact-k",
            "--k", "4", "--n", "6", "--seed", "9", "--jobs", "2")
    first = run_cli(*args)
    assert first.returncode == 0
    assert run_cli(*args).stdout == first.stdout
    assert len(body_lines(first.stdout)) == 6


@pytest.fixture
def pool_sizes(monkeypatch):
    """Swap the process pool for an in-process stand-in that records its size
    and starts no process; returns the recorded sizes."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_pool_is_bounded_by_arguments_and_cores(pool_sizes, monoid_files, capsys):
    from tracegen import cli

    sizes = pool_sizes
    cores = len(os.sched_getaffinity(0))
    args = list(range(5000))
    assert cli._run_workers(abs, args, 5000) == args
    assert cli._run_workers(abs, args[:2], 5000) == args[:2]
    assert sizes == [min(5000, cores), min(2, cores)]
    # streams stay keyed by --jobs, so the pool's size leaves stdout as it is
    argv = ["sample", "--monoid", monoid_files["fig1"], "--mode", "boundary",
            "--k", "5", "--n", "7", "--seed", "4", "--jobs", "3"]
    assert cli.main(argv) == 0
    assert sizes[-1] == min(3, cores)
    assert capsys.readouterr().out == run_cli(*argv).stdout


def test_pool_without_sched_getaffinity(pool_sizes, monkeypatch, monoid_files, capsys):
    # macOS and Windows have no os.sched_getaffinity: the pool is sized by cpu_count
    from tracegen import cli

    monkeypatch.delattr(os, "sched_getaffinity")
    argv = ["sample", "--monoid", monoid_files["fig1"], "--mode", "boundary",
            "--k", "5", "--n", "7", "--seed", "4", "--jobs", "3"]
    assert cli.main(argv) == 0
    assert pool_sizes == [min(3, os.cpu_count())]
    assert capsys.readouterr().out == run_cli(*argv).stdout


def test_single_job_reads_the_spec_once(monkeypatch, monoid_files, capsys):
    # one job runs on the front end's bundle: the spec is loaded once per command
    from tracegen import bundle, cli

    calls = []
    load = bundle.load_monoid

    def counting_load(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(bundle, "load_monoid", counting_load)
    fig1 = monoid_files["fig1"]
    for argv in (["sample", "--monoid", fig1, "--mode", "exact-k", "--k", "4", "--n", "5"],
                 ["sample", "--monoid", fig1, "--mode", "boundary", "--k", "4", "--n", "5"],
                 ["sample", "--monoid", fig1, "--mode", "subuniform", "--p", "0.2", "--n", "5"],
                 ["estimate", "--monoid", fig1, "--k", "4", "--n", "50"],
                 ["count", "--monoid", fig1, "--k", "4", "--mc", "--n", "50"]):
        calls.clear()
        assert cli.main(argv) == 0
        assert calls == [fig1], argv
    capsys.readouterr()


def test_count(monoid_files):
    res = run_cli("count", "--monoid", monoid_files["fig1"], "--k", "6",
                  "--exact", "--mc", "--n", "20000", "--seed", "2")
    assert res.returncode == 0
    vals = kv(res.stdout)
    assert vals["lambda 6"] == "377"
    assert vals["lambda_oracle 6"] == "377"
    est = float(vals["lambda_mc 6"])
    se = float(vals["lambda_mc_se 6"])
    assert abs(est - 377) <= 4 * se


def test_estimate(monoid_files):
    args = ("estimate", "--monoid", monoid_files["fig1"], "--k", "5",
            "--phi", "height", "--n", "5000", "--seed", "11")
    first = run_cli(*args)
    assert first.returncode == 0
    assert run_cli(*args).stdout == first.stdout
    vals = kv(first.stdout)
    assert vals["lambda_exact"] == "144"
    assert float(vals["se"]) > 0
    # ratio and exact-normalized estimates agree within combined noise
    assert abs(float(vals["estimate"]) - float(vals["estimate_exact_norm"])) < 0.1
    assert vals["n"] == "5000"


def test_estimate_reducible_warns(monoid_files):
    res = run_cli("estimate", "--monoid", monoid_files["prod32"], "--k", "3",
                  "--phi", "height", "--n", "500", "--seed", "1")
    assert res.returncode == 0
    assert any("warning reducible" in l for l in res.stdout.splitlines())


def test_estimate_jobs_merge(monoid_files):
    args = ("estimate", "--monoid", monoid_files["fig1"], "--k", "4",
            "--phi", "height", "--n", "2000", "--seed", "3", "--jobs", "2")
    first = run_cli(*args)
    assert first.returncode == 0
    assert run_cli(*args).stdout == first.stdout


def assert_refused_past_doubles(res, largest):
    assert res.returncode == 5 and res.stdout == ""
    assert "Traceback" not in res.stderr
    assert f"past {largest}, the largest k" in res.stderr


def test_estimate_past_the_double_range_exits_5(monoid_files, fig1):
    # lambda_hat is printed as a double: on fig1, p0^-k and lambda_k are
    # doubles up to k = 737, and a larger k is refused before any draw
    res = run_cli("estimate", "--monoid", monoid_files["fig1"], "--k", "740", "--n", "2")
    assert_refused_past_doubles(res, 737)
    rng = RandomSource(0).generator()
    with pytest.raises(DoubleOverflow):
        accumulate_moments(fig1, 738, builtin_cost("height", fig1.pair), 2, rng)
    assert rng.random() == RandomSource(0).generator().random()
    res = run_cli("estimate", "--monoid", monoid_files["fig1"], "--k", "737", "--n", "2")
    assert res.returncode == 0
    assert float(kv(res.stdout)["lambda_hat"]) < math.inf


def test_count_mc_past_the_double_range_exits_5(tmp_path):
    # on C_16^c lambda_k leaves the doubles at k = 512, before p0^-k does
    spec = cycle_complement_spec(tmp_path, 16)
    res = run_cli("count", "--monoid", spec, "--k", "600", "--mc", "--n", "2")
    assert_refused_past_doubles(res, 511)
    assert run_cli("count", "--monoid", spec, "--k", "600").returncode == 0


def parse_decimal(text):
    # int(text) is refused past 4300 digits from Python 3.10.7 on: parse in pieces
    value = 0
    for lo in range(0, len(text), 1000):
        piece = text[lo:lo + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def test_count_prints_past_the_int_digit_limit(monoid_files, fig1, capsys):
    # lambda_10400 on fig1 has 4346 digits; the CLI prints it and leaves the
    # interpreter's limit in place for everything else
    argv = ["count", "--monoid", monoid_files["fig1"], "--k", "10400"]
    res = run_cli(*argv)
    assert res.returncode == 0 and "Traceback" not in res.stderr
    name, k, digits = res.stdout.splitlines()[1].split()
    assert (name, k) == ("lambda", "10400") and len(digits) > 4300
    assert parse_decimal(digits) == fig1.lambda_k(10400)
    from tracegen import cli
    limit = getattr(sys, "get_int_max_str_digits", None)
    before = limit() if limit else None
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == res.stdout
    assert (limit() if limit else None) == before


def test_verify_ok(monoid_files):
    res = run_cli("verify", "--monoid", monoid_files["fig1"])
    assert res.returncode == 0
    assert res.stdout.splitlines()[-1] == "result ok"
    assert any(l.startswith("check parry_CP_dev") for l in res.stdout.splitlines())


def test_verify_product(monoid_files):
    res = run_cli("verify", "--monoid", monoid_files["prod32"])
    assert res.returncode == 0
    assert any("product_factorization" in l for l in res.stdout.splitlines())
    assert not any("parry" in l for l in res.stdout.splitlines())


def test_exit_codes(monoid_files, tmp_path):
    assert run_cli("sample", "--monoid", "does-not-exist.json",
                   "--mode", "boundary", "--k", "2").returncode == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"letters": ["a", "a"], "independence": []}', encoding="utf-8")
    assert run_cli("info", "--monoid", str(bad)).returncode == 3
    assert run_cli("sample", "--monoid", monoid_files["fig1"], "--mode", "subuniform",
                   "--p", "0.5", "--n", "1").returncode == 5
    assert run_cli("sample", "--monoid", monoid_files["fig1"], "--mode", "exact-k",
                   "--n", "1").returncode == 2
    res = run_cli("sample", "--monoid", monoid_files["fig1"], "--mode", "exact-k",
                  "--k", "40", "--n", "1", "--seed", "0", "--max-rejects", "1")
    assert res.returncode == 4 and res.stdout == ""


def test_deeply_nested_spec_is_bad_data(tmp_path):
    # json.loads recurses once per nesting level, so this overflows the stack
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 3000, encoding="utf-8")
    res = run_cli("info", "--monoid", str(deep))
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.startswith("error:")


def test_deeply_nested_prefix_cost_is_bad_data(monoid_files):
    res = run_cli("estimate", "--monoid", monoid_files["fig1"], "--k", "3", "--n", "10",
                  "--phi", "prefix:" + "[" * 3000)
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.startswith("error:")


def test_non_utf8_spec_is_bad_data(tmp_path):
    spec = tmp_path / "latin1.json"
    spec.write_bytes(b'{"letters": ["a\xff"], "independence": []}')
    res = run_cli("info", "--monoid", str(spec))
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.startswith("error:")


def cycle_complement_spec(tmp_path, n):
    """C_n^c: n letters on a cycle, each depending only on its two neighbours."""
    letters = [f"x{i:02d}" for i in range(n)]
    pairs = [
        [letters[i], letters[j]]
        for i in range(n)
        for j in range(n)
        if (i - j) % n not in (0, 1, n - 1)
    ]
    spec = tmp_path / f"c{n}.json"
    spec.write_text(json.dumps({"letters": letters, "independence": pairs}), encoding="utf-8")
    return str(spec)


def test_root_failure_exits_5(monkeypatch, monoid_files, capsys):
    # a root that cannot be found fails every command that needs it before
    # anything is printed
    from tracegen import bundle, cli

    def no_root(mu):
        raise NoRootFound("no sign change of the clique polynomial in (0, 1]")

    monkeypatch.setattr(bundle, "principal_root", no_root)
    for args in (("info",), ("verify",), ("count", "--k", "3", "--mc", "--n", "10"),
                 ("estimate", "--k", "3", "--n", "10"),
                 ("sample", "--mode", "boundary", "--k", "3")):
        assert cli.main([args[0], "--monoid", monoid_files["fig1"], *args[1:]]) == 5, args
        out, err = capsys.readouterr()
        assert out == "", args
        assert err.startswith("error:"), args


def test_c18_runs_at_its_exact_root(tmp_path):
    # C_18^c (5 778 cliques) runs at its root, located by exact signs
    spec = cycle_complement_spec(tmp_path, 18)
    res = run_cli("info", "--monoid", spec)
    assert res.returncode == 0, res.stderr
    assert float(kv(res.stdout)["p0"]) == 0.2519135665613881
    res = run_cli("sample", "--monoid", spec, "--mode", "boundary", "--k", "3", "--n", "5")
    assert res.returncode == 0, res.stderr
    assert len(body_lines(res.stdout)) == 5


@pytest.mark.parametrize("blocks", [(1, 1), (2, 2), (32, 32), (8,) * 7],
                         ids=["comm2", "free2x2", "free32x32", "free8x7"])
def test_multiple_root_exact_k_succeeds(tmp_path, blocks):
    # c commuting free blocks of s letters: mu = (1 - s x)^c has the multiple
    # root 1/s, and the size equation k mu + p mu' = 0 the root k / (s (k + c))
    spec = block_spec(tmp_path / "blocks.json", blocks)
    k, n = 20, 10
    res = run_cli("sample", "--monoid", spec, "--mode", "exact-k", "--k", str(k),
                  "--n", str(n), "--seed", "1")
    assert res.returncode == 0, res.stderr
    p = float(res.stdout.split(" p=")[1].split()[0])
    closed = k / (blocks[0] * (k + len(blocks)))
    assert abs(p - closed) <= math.ulp(closed), (p, closed)
    pair = load_monoid(spec)
    lines = body_lines(res.stdout)
    assert len(lines) == n
    assert all(parse_trace(pair, line).length == k for line in lines)


def test_multiple_root_acceptance_header_is_exact(tmp_path):
    # 8 commuting letters: mu = (1 - x)^8 has an 8-fold root at 1, so mu(p) at
    # k = 1000 is ~1e-19; the header is lambda_k p^k mu(p) with lambda_k =
    # C(k + 7, 7), close to the exact value at the printed p
    spec = block_spec(tmp_path / "comm8.json", [1] * 8)
    k = 1000
    res = run_cli("sample", "--monoid", spec, "--mode", "exact-k", "--k", str(k),
                  "--n", "5", "--seed", "1")
    assert res.returncode == 0, res.stderr
    header = res.stdout.splitlines()[0]
    p = Fraction(header.split(" p=")[1].split()[0])
    got = float(header.split(" expected_acceptance=")[1].split()[0])
    want = math.comb(k + 7, 7) * p ** k * (1 - p) ** 8
    assert abs(Fraction(got) / want - 1) <= 1e-13, (got, float(want))
    pair = load_monoid(spec)
    lines = body_lines(res.stdout)
    assert len(lines) == 5
    assert all(parse_trace(pair, line).length == k for line in lines)


@pytest.mark.parametrize("n", [14, 16, 17, 18], ids=lambda n: f"c{n}")
def test_verify_cycle_complement_ok(tmp_path, n):
    # 843 to 5 778 cliques at an exact root: above 40 cliques the telescoping
    # check runs on paths of length 2, and every row sum stays within 1e-12 of 1
    res = run_cli("verify", "--monoid", cycle_complement_spec(tmp_path, n))
    assert res.returncode == 0, res.stdout
    assert "check cylinder_max_dev" in res.stdout
    assert "check row_sum_max_dev" in res.stdout
    assert res.stdout.splitlines()[-1] == "result ok"


def cap_address_space():
    """Limit the calling child process to 1 GiB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def assert_verify_fits_in_one_gib(spec):
    """``verify`` on ``spec`` reports under a 1 GiB cap: it reads one row per
    follow class and walks its paths along those rows, no n x n array."""
    res = run_cli("verify", "--monoid", spec, env={"OPENBLAS_NUM_THREADS": "1"},
                  preexec_fn=cap_address_space)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "result ok", res.stdout
    assert "Traceback" not in res.stderr


def assert_samplers_fit_in_one_gib(spec, warnings):
    """Every sampler command on ``spec``, and ``verify``, finishes under a
    1 GiB cap; ``estimate`` prints ``warnings`` more lines."""
    p = 0.5 * MonoidBundle(load_monoid(spec)).p0
    for args, lines in ((("sample", "--mode", "boundary", "--k", "5", "--n", "3"), 4),
                        (("sample", "--mode", "exact-k", "--k", "5", "--n", "3"), 4),
                        (("sample", "--mode", "subuniform", "--p", repr(p), "--n", "3"), 4),
                        (("estimate", "--k", "5", "--n", "10"), 11 + warnings),
                        (("count", "--k", "5", "--mc", "--n", "10"), 4)):
        res = run_cli(args[0], "--monoid", spec, *args[1:], env={"OPENBLAS_NUM_THREADS": "1"},
                      preexec_fn=cap_address_space)
        assert res.returncode == 0, (args, res.stderr)
        assert len(res.stdout.splitlines()) == lines, args
        assert "Traceback" not in res.stderr, args
    assert_verify_fits_in_one_gib(spec)


def test_near3comp_samplers_fit_in_one_gib(tmp_path):
    # 64 letters in blocks of 20, 20 and 24, joined by two dependent pairs:
    # 10 980 cliques but only 14 distinct follow sets D(c)
    assert_samplers_fit_in_one_gib(
        block_spec(tmp_path / "near3comp.json", (20, 20, 24), {(0, 20), (20, 40)}), 0)


def test_free3comp_samplers_fit_in_one_gib(tmp_path):
    # the same blocks left apart: three components, the last holding bit 63,
    # and estimate adds its reducible warning
    assert_samplers_fit_in_one_gib(block_spec(tmp_path / "free3comp.json", (20, 20, 24)), 1)


def test_near4comp_verify_fits_in_one_gib(tmp_path):
    # four blocks of 16 joined by three dependent pairs: 82 687 cliques, whose
    # dense admissibility alone would take 6.37 GiB
    assert_verify_fits_in_one_gib(
        block_spec(tmp_path / "near4comp.json", (16, 16, 16, 16), {(0, 16), (16, 32), (32, 48)}))


def test_near4comp_count_exact_fits_in_one_gib(tmp_path):
    # the enumeration steps over each follow class's columns, not the rows
    # of the 6.37 GiB dense admissibility
    spec = block_spec(tmp_path / "near4comp.json", (16, 16, 16, 16),
                      {(0, 16), (16, 32), (32, 48)})
    res = run_cli("count", "--monoid", spec, "--k", "2", "--exact",
                  env={"OPENBLAS_NUM_THREADS": "1"}, preexec_fn=cap_address_space)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "lambda_oracle 2 2563"


def test_k_zero(monoid_files):
    for name in ("fig1", "prod32"):
        res = run_cli("sample", "--monoid", monoid_files[name], "--mode", "boundary",
                      "--k", "0", "--n", "3")
        assert res.returncode == 0, res.stderr
        assert body_lines(res.stdout) == ["[]"] * 3
    res = run_cli("sample", "--monoid", monoid_files["fig1"], "--mode", "boundary",
                  "--k", "3", "--n", "0")
    assert res.returncode == 0 and len(res.stdout.splitlines()) == 1
    assert res.stdout.startswith("# tracegen sample")
    # k = 0, and fewer than two samples for the error estimate, are usage errors
    for args in (("estimate", "--k", "0", "--n", "200"),
                 ("count", "--k", "0", "--mc", "--n", "200"),
                 ("estimate", "--k", "3", "--n", "1"),
                 ("count", "--k", "3", "--mc", "--n", "1")):
        res = run_cli(args[0], "--monoid", monoid_files["fig1"], *args[1:])
        assert res.returncode == 2 and res.stdout == "", args


def test_negative_k_is_usage_error(monoid_files):
    for args in (("info", "--k", "-1"), ("count", "--k", "-1"),
                 ("count", "--k", "3", "--n", "-3"),
                 ("estimate", "--k", "-1"),
                 ("estimate", "--k", "3", "--n", "10", "--lambda-limit", "-1"),
                 ("sample", "--mode", "exact-k", "--k", "-1"),
                 ("sample", "--mode", "boundary", "--k", "-2"),
                 ("sample", "--mode", "boundary", "--k", "3", "--n", "-2")):
        res = run_cli(args[0], "--monoid", monoid_files["fig1"], *args[1:])
        assert res.returncode == 2 and res.stdout == "", args
        assert "non-negative" in res.stderr


def test_worker_counts_are_usage_errors(monoid_files):
    for args in (("sample", "--mode", "exact-k", "--k", "3", "--jobs", "0"),
                 ("sample", "--mode", "boundary", "--k", "3", "--jobs", "-3"),
                 ("count", "--k", "3", "--jobs", "0"),
                 ("estimate", "--k", "3", "--n", "10", "--jobs", "-1"),
                 ("sample", "--mode", "exact-k", "--k", "3", "--max-rejects", "-1")):
        res = run_cli(args[0], "--monoid", monoid_files["fig1"], *args[1:])
        assert res.returncode == 2 and res.stdout == "", args


def test_near_root_subuniform_is_refused_up_front(monoid_files, fig1):
    # the mean trace at p0 (1 - 1e-9) has 1e9 letters: far more layers than
    # the walk's step cap, so the command must stop before the walk starts
    p = fig1.p0 * (1.0 - 1e-9)
    res = run_cli("sample", "--monoid", monoid_files["fig1"], "--mode", "subuniform",
                  "--p", repr(p), "--n", "1", timeout=60)
    assert res.returncode == 4 and res.stdout == ""
    assert res.stderr.startswith("error:")


@pytest.mark.parametrize("module", ["concurrent.futures.process", "tracegen.oracle"])
def test_cli_import_leaves_out_the_process_pool(module):
    # the pool and the brute-force oracle are loaded only by the commands that use them
    code = (f"import sys, tracegen; print({module!r} in sys.modules); "
            f"import tracegen.cli; print({module!r} in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert res.stdout.split() == ["False", "False"], res.stderr


def test_count_exact_runs_without_scipy(monoid_files):
    # the oracle imports scipy inside its chi-square test alone, so `count
    # --exact`, the one command that loads the oracle, runs on numpy only
    code = ("import sys; sys.modules['scipy'] = None; from tracegen import cli; "
            "status = cli.main(['count', '--monoid', sys.argv[1], '--k', '6', '--exact']); "
            "import tracegen.oracle; "
            "print(status, any(m is not None for k, m in sys.modules.items() "
            "if k.split('.')[0] == 'scipy'), file=sys.stderr)")
    res = subprocess.run([sys.executable, "-c", code, monoid_files["fig1"]], capture_output=True,
                         text=True, timeout=60)
    assert res.stderr.split() == ["0", "False"], res.stderr
    assert "lambda_oracle 6 377" in res.stdout.splitlines()


@pytest.mark.parametrize("name, roots", [("fig1", 1), ("prod32", 2)])
def test_each_root_is_computed_once(monkeypatch, monoid_files, capsys, name, roots):
    # the bundle that owns a root computes it once: one per irreducible component
    from tracegen import bundle, cli

    calls = []
    root = bundle.principal_root

    def counting_root(mu):
        calls.append(mu)
        return root(mu)

    monkeypatch.setattr(bundle, "principal_root", counting_root)
    for argv in (["info", "--monoid", monoid_files[name]],
                 ["sample", "--monoid", monoid_files[name], "--mode", "exact-k",
                  "--k", "4", "--n", "3"]):
        calls.clear()
        assert cli.main(argv) == 0
        assert len(calls) == roots, argv
    capsys.readouterr()


def test_count_exact_builds_no_trace_set(monkeypatch, monoid_files, capsys):
    # --exact counts the enumeration as it streams: M_k is never held whole
    from tracegen import cli, oracle

    def refuse(*args):
        raise AssertionError("count --exact built a TraceSet")

    monkeypatch.setattr(oracle, "TraceSet", refuse)
    assert cli.main(["count", "--monoid", monoid_files["fig1"], "--k", "6", "--exact"]) == 0
    vals = kv(capsys.readouterr().out)
    assert vals["lambda_oracle 6"] == vals["lambda 6"] == "377"
    # past the enumeration budget it exits 4 before printing anything
    iter_Mk = oracle.iter_Mk
    monkeypatch.setattr(oracle, "iter_Mk", lambda family, k: iter_Mk(family, k, budget=100))
    assert cli.main(["count", "--monoid", monoid_files["fig1"], "--k", "6", "--exact"]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, target", [
    (["info", "--k", "4"], "tracegen.bundle.MonoidBundle.growth"),
    (["sample", "--mode", "boundary", "--k", "3", "--n", "5"], "tracegen.cli.layers_block"),
    (["sample", "--mode", "subuniform", "--p", "0.2", "--n", "5"], "tracegen.cli.layers_block"),
    (["sample", "--mode", "exact-k", "--k", "3", "--n", "5"], "tracegen.cli.layers_block"),
    (["count", "--k", "4", "--mc", "--n", "20"], "tracegen.cli.report_from_moments"),
    (["estimate", "--k", "4", "--n", "20"], "tracegen.bundle.MonoidBundle.lambda_k"),
    (["verify"], "tracegen.cli.verification_report"),
], ids=["info", "boundary", "subuniform", "exact-k", "count", "estimate", "verify"])
def test_a_late_failure_prints_nothing(monkeypatch, monoid_files, capsys, argv, target):
    # each command fails in one of its last calls: main writes no line of it
    from tracegen import cli

    def explode(*args, **kwargs):
        raise CliqueExplosion("late failure")

    monkeypatch.setattr(target, explode)
    assert cli.main([argv[0], "--monoid", monoid_files["prod32"], *argv[1:]]) == 4
    assert capsys.readouterr() == ("", "error: late failure\n")


def test_negative_seed_is_its_own_stream(monoid_files):
    # a seed is taken modulo 2^64: -1 was cast through float64 to seed 0's
    # key, with a numpy warning on stderr
    args = ("sample", "--monoid", monoid_files["prod32"], "--mode", "subuniform", "--p", "0.2",
            "--n", "20")
    zero, minus = run_cli(*args, "--seed", "0"), run_cli(*args, "--seed", "-1")
    assert zero.returncode == minus.returncode == 0
    assert minus.stderr == ""
    assert body_lines(minus.stdout) != body_lines(zero.stdout)


@pytest.mark.parametrize("argv, limit", [
    (["--mode", "subuniform", "--p", "0.17", "--n", "200000"], 8 << 20),
    (["--mode", "exact-k", "--k", "20", "--n", "20000"], 5 << 20),
], ids=["subuniform", "exact-k"])
def test_sample_holds_text_not_traces(monoid_files, argv, limit):
    # the samplers hand the CLI one row chunk of masks at a time, and it
    # keeps each chunk's text as one block: no Trace and no per-line string
    # outlives its chunk (subuniform at n = 200 000 held 31.8 MiB traced when
    # every draw stayed a Trace and a line, for 2.4 MiB of text)
    from tracegen import cli

    ns = cli._build_parser().parse_args(
        ["sample", "--monoid", monoid_files["prod32"], *argv, "--seed", "1"])
    tracemalloc.start()
    try:
        code, blocks = cli.cmd_sample(ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sum(block.count("\n") + 1 for block in blocks) == ns.n + 1
    assert peak < limit


def test_out_of_memory_exits_4(monkeypatch, monoid_files, capsys):
    from tracegen import cli

    def exhaust(*args):
        raise MemoryError("Unable to allocate 6.37 GiB")

    monkeypatch.setattr("tracegen.cli.verification_report", exhaust)
    assert cli.main(["verify", "--monoid", monoid_files["fig1"]]) == 4
    assert capsys.readouterr() == ("", "error: out of memory: Unable to allocate 6.37 GiB\n")


def test_reducible_monoid_does_not_enumerate_the_product(monoid_files, tmp_path):
    # prod32's components have 4 and 3 cliques, the product 12: under a cap
    # of 10 only the commands that read the product's cliques are refused
    prod32 = monoid_files["prod32"]
    capped = {"TRACEGEN_CLIQUE_CAP": "10"}
    for args in (("info", "--k", "8"), ("count", "--k", "6", "--mc", "--n", "50"),
                 ("estimate", "--k", "3", "--n", "50"),
                 ("sample", "--mode", "exact-k", "--k", "6", "--n", "20")):
        res = run_cli(args[0], "--monoid", prod32, *args[1:], env=capped)
        assert res.returncode == 0, (args, res.stderr)
        assert res.stdout == run_cli(args[0], "--monoid", prod32, *args[1:]).stdout, args
    for args in (("verify",), ("count", "--k", "3", "--exact")):
        res = run_cli(args[0], "--monoid", prod32, *args[1:], env=capped)
        assert (res.returncode, res.stdout) == (4, ""), args
        assert res.stderr.startswith("error:"), args
    # seven free 8-letter components: 9 cliques each, 9^7 in the product,
    # above the default cap of 2^20
    spec = block_spec(tmp_path / "free7x8.json", (8,) * 7)
    res = run_cli("info", "--monoid", spec, "--k", "2")
    assert res.returncode == 0, res.stderr
    assert kv(res.stdout)["cliques"] == str(9 ** 7)
    assert kv(res.stdout)["lambda 2"] == str(56 * 56 - 21 * 64)


def test_clique_cap_env(monoid_files):
    res = run_cli("info", "--monoid", monoid_files["fig1"],
                  env={"TRACEGEN_CLIQUE_CAP": "3"})
    assert res.returncode == 4
    assert "cap" in res.stderr
    # a cap that is not an integer of at least 1 is a usage error naming the variable
    for raw in ("0", "-5", "abc", "2.5"):
        for cmd in ("info", "verify"):
            res = run_cli(cmd, "--monoid", monoid_files["fig1"], env={"TRACEGEN_CLIQUE_CAP": raw})
            assert (res.returncode, res.stdout) == (2, ""), (raw, cmd, res.stderr)
            assert "TRACEGEN_CLIQUE_CAP" in res.stderr, (raw, res.stderr)


ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "cli_stdout.json").read_text(encoding="utf-8"))


def assert_golden_stdout(argv, cwd, **env):
    """``python -m tracegen <argv>`` in ``cwd`` prints the recorded digest."""
    for name, text in GOLDEN["specs"].items():
        (cwd / name).write_text(text, encoding="utf-8")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "tracegen", *argv.split()],
        capture_output=True, cwd=cwd, timeout=300,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )
    assert res.returncode == 0, res.stderr
    want = next(c["sha256"] for c in GOLDEN["commands"] if c["argv"] == argv)
    assert hashlib.sha256(res.stdout).hexdigest() == want


@pytest.mark.parametrize("argv", [c["argv"] for c in GOLDEN["commands"]])
def test_stdout_golden(argv, tmp_path):
    # stdout digests recorded by an earlier version: byte identity across versions
    assert_golden_stdout(argv, tmp_path)


@pytest.mark.parametrize("spec", ["fig1.json", "c14.json"])
def test_verify_stdout_is_independent_of_blas_threads(spec, tmp_path):
    # verify makes no BLAS call, so no digit it prints depends on how many
    # threads OpenBLAS would split a product over
    for threads in ("1", "2"):
        assert_golden_stdout(f"verify --monoid {spec}", tmp_path, OPENBLAS_NUM_THREADS=threads)


@pytest.mark.parametrize("args", [
    ("info",),
    ("sample", "--mode", "boundary", "--k", "6", "--n", "3000"),
])
def test_closed_stdout_exits_141_quietly(monoid_files, args):
    # a reader that has gone (`tracegen ... | head -0`) is no bad data: the
    # run writes nothing to stderr and exits 128 + SIGPIPE
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "tracegen", args[0], "--monoid", monoid_files["fig1"],
             *args[1:]],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    finally:
        os.close(write)
    assert (res.returncode, res.stderr) == (141, "")
