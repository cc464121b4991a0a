import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

from tracegen import MonoidBundle, load_monoid, parse_trace, validate_independence
from tracegen.errors import CliqueExplosion

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


def test_root_failure_exits_5(tmp_path):
    # C_18^c: the float root finder cannot meet its residual contract, and
    # every command that needs the root fails before printing anything
    spec = cycle_complement_spec(tmp_path, 18)
    for args in (("info",), ("verify",), ("count", "--k", "3", "--mc", "--n", "10"),
                 ("estimate", "--k", "3", "--n", "10"),
                 ("sample", "--mode", "boundary", "--k", "3")):
        res = run_cli(args[0], "--monoid", spec, *args[1:])
        assert res.returncode == 5, args
        assert res.stderr.startswith("error:"), args
        assert res.stdout == "", args


def test_multiple_root_exact_k_exits_5(tmp_path):
    # mu = (1-x)^2 and (1-2x)^2: mu reads 0.0 near its double root, and the
    # tuning equation fails with a typed error instead of a traceback
    specs = {"comm2": {"letters": ["a", "b"], "independence": [["a", "b"]]},
             "free2x2": {"letters": ["a", "b", "c", "d"],
                         "independence": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]]}}
    for name, spec in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**spec, "symmetric_closure": True}), encoding="utf-8")
        res = run_cli("sample", "--monoid", str(path), "--mode", "exact-k", "--k", "5",
                      "--n", "10", "--seed", "1")
        assert res.returncode == 5, (name, res.stderr)
        assert res.stderr.startswith("error:"), name
        assert res.stdout == "", name


def test_verify_c14_ok(tmp_path):
    # 843 cliques: above 40 the telescoping check runs on paths of length 2
    res = run_cli("verify", "--monoid", cycle_complement_spec(tmp_path, 14))
    assert res.returncode == 0, res.stdout
    assert "check cylinder_max_dev" in res.stdout
    assert res.stdout.splitlines()[-1] == "result ok"


def test_verify_c16_ok(tmp_path):
    # 2 207 cliques at a float root: every row sum stays within 1e-12 of 1
    res = run_cli("verify", "--monoid", cycle_complement_spec(tmp_path, 16))
    assert res.returncode == 0, res.stdout
    assert "check row_sum_max_dev" in res.stdout
    assert res.stdout.splitlines()[-1] == "result ok"


def cap_address_space():
    """Limit the calling child process to 1 GiB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def assert_verify_fits_in_one_gib(spec):
    """``verify`` on ``spec`` reports under a 1 GiB cap: it reads one row per
    follow class and walks one clique per path node, no n x n array."""
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
    (["sample", "--mode", "boundary", "--k", "3", "--n", "5"], "tracegen.cli.layers_line"),
    (["sample", "--mode", "subuniform", "--p", "0.2", "--n", "5"], "tracegen.cli.trace_line"),
    (["sample", "--mode", "exact-k", "--k", "3", "--n", "5"], "tracegen.cli.trace_line"),
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
