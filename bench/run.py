"""tracegen benchmark runner (stdlib only).

Usage, from the repository root:

    python3 bench/run.py --workload boundary-wide --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's ``python -m tracegen`` command lines with
``--jobs 1`` in a closed loop (one client; each command starts when the
previous one has exited) for about ``--seconds`` in all, checks every
output against the spec file, and reports the end-to-end metrics.
``--trace 1`` replays the same calls in-process with spans around each
module's entry points and reports the per-layer metrics.  Every result is
preceded by an ``env`` line; the last line of stdout is one JSON object.
See bench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from dataclasses import asdict
from pathlib import Path

from checker import CheckError, Spec, check_estimate, check_sample, check_verify, cylinder_paths
from specs import load_specs
from tracing import span_cost
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# verify's power iteration must not spread over the shared cores
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_REPS = 3        # import probes per traced run, after one warm-up probe
MIN_REPS = 3           # closed-loop repeats per run, even past --seconds
RUN_BUDGET_S = 165.0   # a run must exit within 180 s
CHILD_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def median_q(values):
    """Median and quartiles (inclusive method for fewer than two samples)."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


class Runner:
    def __init__(self, workload, seed, seconds):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.paths = {k: str(p.relative_to(ROOT)) for k, p in load_specs().items()}
        self.specs = {k: Spec.from_file(p) for k, p in self.paths.items()}
        self.dir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, **PINNED_ENV,
                        PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))
        self.attempted = 0
        self.failed = 0
        self.probe_info = {}

    # -- child processes -------------------------------------------------------

    def spawn(self, argv, tag):
        """Run one child to exit; returns (wall seconds, exit code, peak RSS MB, stdout)."""
        out_path = self.dir / f"{tag}.out"
        err_path = self.dir / f"{tag}.err"
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                               (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            killer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            print(f"{tag}: exit {code}: {err_path.read_text(errors='replace')[-2000:]}",
                  file=sys.stderr)
        return wall, code, usage.ru_maxrss / 1024.0, out_path.read_bytes()

    def cli_argv(self, cmd):
        return ["-m", "tracegen", *cmd.argv(self.paths[cmd.spec], self.seed)]

    def probe(self, cmd, tag):
        """Fresh-process set-up of one command: (import_s, setup_s) or None on failure."""
        argv = [str(BENCH / "probe.py"), json.dumps(asdict(cmd)), self.paths[cmd.spec]]
        _, code, _, out = self.spawn(argv, tag)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return None
        info = json.loads(out.decode().strip().splitlines()[-1])
        if not Path(info["tracegen"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported tracegen from {info['tracegen']}, not from {SRC}")
        self.probe_info = info
        return info["import_s"], info["setup_s"]

    def check(self, cmd, text):
        spec = self.specs[cmd.spec]
        if cmd.kind == "sample":
            check_sample(spec, text, cmd.mode, cmd.k, cmd.n)
        elif cmd.kind == "estimate":
            check_estimate(spec, text, cmd.k, cmd.n)
        else:
            check_verify(text)

    def run_cli(self, cmd, tag, digests):
        """One checked CLI operation: (wall, rss, stdout text or None on failure)."""
        wall, code, rss, out = self.spawn(self.cli_argv(cmd), tag)
        self.attempted += 1
        text = None
        if code == 0:
            digest = hashlib.sha256(out).hexdigest()
            try:
                if cmd not in digests:
                    self.check(cmd, out.decode())
                    digests[cmd] = digest
                elif digests[cmd] != digest:
                    raise CheckError("stdout differs between repeats of one command line")
                text = out.decode()
            except CheckError as exc:
                print(f"{tag}: {exc}", file=sys.stderr)
        self.failed += text is None
        return wall, rss, text

    def environment(self):
        return {
            "workload": self.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": self.probe_info.get("numpy"),
            "blas_threads": self.probe_info.get("blas_threads"),
            "blas_env": PINNED_ENV,
            "commit": git_commit(),
        }

    def items(self):
        """Output samples or estimator draws; cylinder paths checked for verify."""
        return sum(cylinder_paths(self.specs[c.spec]) if c.kind == "verify" else c.n
                   for c in self.workload.commands)

    def time_left(self, needed):
        return time.monotonic() + needed < self.deadline

    def another_lap(self, start, laps):
        """Whether to run one more lap so that the run lasts about --seconds in all.

        Set-up probes and reference runs count towards --seconds, so a run's
        length does not depend on the workload.
        """
        if laps < MIN_REPS:
            return True
        elapsed = time.monotonic() - start
        lap = elapsed / laps
        return elapsed + lap / 2 < self.seconds and self.time_left(2 * lap)

    # -- end to end ----------------------------------------------------------------

    def measure(self):
        """Closed loop of laps; a lap probes then runs each of the workload's commands.

        Each lap's set-up probes run just before its commands, so set-up and
        run times sample the same stretch of the machine's speed.  On a shared
        host that speed can sit at one level for tens of seconds and then
        move to another, so a median of a few laps jumps from level to level,
        while the mean over the run weights each level by the time spent in
        it: wall_s and items_per_s are means over the run, set-up a median.
        """
        cmds = self.workload.commands
        start = time.monotonic()
        for i, cmd in enumerate(cmds):  # warm-up: page cache, bytecode cache
            self.probe(cmd, f"warm-{i}")
        walls, setups, rsss, digests = [], [], [], {}
        while self.another_lap(start, len(walls)):
            lap_wall = lap_setup = lap_rss = 0.0
            for i, cmd in enumerate(cmds):
                got = self.probe(cmd, f"probe{len(walls)}-{i}")
                wall, rss, _ = self.run_cli(cmd, f"rep{len(walls)}-{i}", digests)
                lap_setup += got[1] if got else float("nan")
                lap_wall += wall
                lap_rss = max(lap_rss, rss)
            walls.append(lap_wall)
            setups.append(lap_setup)
            rsss.append(lap_rss)
        setups = [s for s in setups if s == s] or [0.0]
        wall_s = statistics.fmean(walls)
        wall_med, wq1, wq3 = median_q(walls)
        setup_s, sq1, sq3 = median_q(setups)
        rss, rq1, rq3 = median_q(rsss)
        items = self.items()
        items_per_s = items / max(wall_s - setup_s, 1e-9)
        print(f"metric wall_s {wall_s:.6f} s mean of {len(walls)} repeats "
              f"(median {wall_med:.6f}, q1 {wq1:.6f}, q3 {wq3:.6f})")
        print(f"metric setup_s {setup_s:.6f} s median of {len(setups)} fresh processes "
              f"(q1 {sq1:.6f}, q3 {sq3:.6f})")
        print(f"metric items_per_s {items_per_s:.3f} 1/s "
              f"({items} items over mean wall_s - setup_s)")
        print(f"metric peak_rss_mb {rss:.3f} MB median of {len(rsss)} repeats "
              f"(q1 {rq1:.3f}, q3 {rq3:.3f})")
        print(f"metric fail_rate {self.failed / self.attempted:.6f} ratio "
              f"({self.failed} failed of {self.attempted} attempted)")
        return {"wall_s": wall_s, "setup_s": setup_s, "items_per_s": items_per_s,
                "peak_rss_mb": rss}

    # -- traced -------------------------------------------------------------------

    def trace(self):
        cmds = self.workload.commands
        start = time.monotonic()
        imports = []
        for rep in range(IMPORT_REPS + 1):
            got = self.probe(cmds[0], f"probe{rep}")
            if rep and got:
                imports.append(got[0])
        refs = [self.run_cli(cmd, f"ref{i}", {})[2] for i, cmd in enumerate(cmds)]

        sys.path.insert(0, str(SRC))
        import replay  # imports tracegen, so only after src/ is on the path

        if not Path(replay.tracegen.__file__).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported tracegen from {replay.tracegen.__file__}")
        cost = span_cost()
        tracers, per_replay = [], []
        while self.another_lap(start, len(tracers)):
            self.attempted += 1
            try:
                tr, outputs = replay.replay(cmds, self.paths, self.seed, trace_id=len(tracers))
            except Exception:  # a library failure is a failed operation, not a crash
                traceback.print_exc()
                self.failed += 1
                break
            same = all(ref is not None and replay.comparable_lines(cmd, ref) == lines
                       for cmd, ref, lines in zip(cmds, refs, outputs))
            if not same:
                print(f"replay {len(tracers)}: output differs from the CLI", file=sys.stderr)
            self.failed += not same
            tracers.append(tr)
            per_replay.append(replay.layer_metrics(tr))
        if not tracers:
            return {}
        metrics = {}
        for key in per_replay[0]:
            values = [m[key] for m in per_replay]
            # counts repeat exactly at one seed; times get their median
            metrics[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
        metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
        metrics["trace.overhead_s"] = cost * metrics["trace.spans"]
        metrics["verify.cylinder_paths"] = sum(
            cylinder_paths(self.specs[c.spec]) for c in cmds if c.kind == "verify")
        metrics["verify.cylinder_paths_per_s"] = (
            metrics["verify.cylinder_paths"] / metrics["verify.report_s"]
            if metrics["verify.report_s"] > 0 else 0.0)
        if any(c.mode == "exact-k" for c in cmds):
            self.check_acceptance(tracers[-1].counts)

        print(f"dominant_layer {replay.dominant_layer(metrics)} "
              f"(median of {len(tracers)} traced replays)")
        for name in sorted(metrics):
            print(f"layer {name} {metrics[name]!r} {unit_of(name)}")
        with open(OUT / f"trace-{self.name}-seed{self.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"env": self.environment(), "metrics": metrics,
                       "replays": [tr.to_json() for tr in tracers]}, fh)
        return metrics

    def check_acceptance(self, counts):
        """Exact-k acceptance ratio within five binomial standard errors of the prediction."""
        self.attempted += 1
        n, q = counts["sampling.proposals"], counts["sampling.expected_acceptance"]
        ratio = counts["sampling.acceptances"] / n
        se = (q * (1.0 - q) / n) ** 0.5
        if abs(ratio - q) > 5.0 * se:
            print(f"acceptance ratio {ratio} is more than 5 se ({se}) from {q}", file=sys.stderr)
            self.failed += 1


def unit_of(name):
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us_per_draw"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "expected_acceptance")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "tracegen" / "__init__.py").is_file():
            raise BenchError(f"no tracegen sources under {SRC}")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        wanted = declared["per_layer" if args.trace else "end_to_end"]
        os.environ.update(PINNED_ENV)
        os.chdir(ROOT)
        runner = Runner(args.workload, args.seed, args.seconds)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        metrics = runner.trace() if args.trace else runner.measure()
        print("env " + json.dumps(runner.environment(), sort_keys=True))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    # a run whose replays all failed has no metrics; it still reports, as incorrect
    values = {m["name"]: metrics[m["name"]] if metrics else 0.0 for m in wanted}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
