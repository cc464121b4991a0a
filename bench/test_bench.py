"""Self-tests of the benchmark's checker and span arithmetic.

Run with ``python3 -m unittest discover -s bench`` from the repository root;
they need neither ``tracegen`` nor numpy.
"""

from __future__ import annotations

import json
import unittest

from checker import (
    CheckError,
    Spec,
    check_estimate,
    check_sample,
    check_verify,
    count_traces,
    cylinder_paths,
    parse_layers,
)
from run import ROOT, unit_of
from specs import SPEC_DIR, load_specs
from tracing import Tracer, covered, self_times, totals_by_name

FIG1 = Spec(["a", "b", "c"], [["a", "b"], ["b", "a"]])
BOUNDARY_HEADER = "# tracegen sample mode=boundary k=3 n=2\n"


def sample_text(header, lines):
    return header + "".join(line + "\n" for line in lines)


class CheckerTest(unittest.TestCase):
    def test_accepts_valid_boundary_output(self):
        text = sample_text(BOUNDARY_HEADER, ['[["a","b"],["c"],["a"]]', '[["c"],["b"],["c"]]'])
        self.assertEqual(len(check_sample(FIG1, text, "boundary", 3, 2)), 2)

    def test_rejects_corrupted_line(self):
        for bad in ('[["a","b"],["c"],["a"]', '[["a","b"],["q"],["a"]]',
                    '[["b","a"],["c"],["a"]]', '[[],["c"],["a"]]'):
            text = sample_text(BOUNDARY_HEADER, ['[["c"],["b"],["c"]]', bad])
            with self.assertRaises(CheckError, msg=bad):
                check_sample(FIG1, text, "boundary", 3, 2)

    def test_rejects_wrong_length(self):
        text = sample_text(BOUNDARY_HEADER, ['[["a"],["c"]]', '[["c"],["b"],["c"]]'])
        with self.assertRaises(CheckError):
            check_sample(FIG1, text, "boundary", 3, 2)
        exact = sample_text("# tracegen sample mode=exact-k\n", ['[["a","b"],["c"]]'])
        check_sample(FIG1, exact, "exact-k", 3, 1)
        with self.assertRaises(CheckError):
            check_sample(FIG1, exact, "exact-k", 4, 1)
        with self.assertRaises(CheckError):
            check_sample(FIG1, exact, "exact-k", 3, 2)

    def test_rejects_non_admissible_pair_and_non_clique(self):
        # b commutes with a, so a layer {b} cannot rest on a layer {a}
        with self.assertRaises(CheckError):
            parse_layers(FIG1, '[["a"],["b"]]')
        with self.assertRaises(CheckError):
            parse_layers(FIG1, '[["a","c"]]')
        self.assertEqual(parse_layers(FIG1, '[["a"],["a"],["c"],["b"]]'), [1, 1, 4, 2])

    def test_count_traces_matches_fig1_growth(self):
        self.assertEqual([count_traces(FIG1, k) for k in range(9)],
                         [1, 3, 8, 21, 55, 144, 377, 987, 2584])

    def test_estimate_window(self):
        lam = count_traces(FIG1, 4)
        good = f"# tracegen estimate\nestimate 2.5\nn 100\nlambda_hat {lam + 1}\n" \
               f"lambda_hat_se 1\nlambda_exact {lam}\n"
        check_estimate(FIG1, good, 4, 100)
        with self.assertRaises(CheckError):
            check_estimate(FIG1, good.replace(f"lambda_hat {lam + 1}", f"lambda_hat {lam + 6}"),
                           4, 100)
        with self.assertRaises(CheckError):
            check_estimate(FIG1, good, 4, 99)

    def test_verify_needs_result_ok(self):
        check_verify("# tracegen verify\ncheck x 0 tol 1 ok\nresult ok\n")
        with self.assertRaises(CheckError):
            check_verify("# tracegen verify\ncheck x 2 tol 1 FAIL\nresult fail\n")

    def test_cylinder_paths_by_brute_force(self):
        n_cliques = len(FIG1.cliques)

        def paths(length, skip_empty_before_last):
            out = [[c] for c in FIG1.cliques]
            for _ in range(length - 1):
                out = [p + [c] for p in out for c in FIG1.cliques
                       if FIG1.admissible(p[-1], c)
                       and not (skip_empty_before_last and p[-1] == 0)]
            return len(out)

        max_len = 4 if n_cliques <= 16 else 3
        expected = sum(3 * paths(n, False) + paths(n, True) for n in range(1, max_len + 1))
        self.assertEqual(cylinder_paths(FIG1), expected)
        self.assertEqual(expected, 921)

    def test_checked_in_specs(self):
        paths = load_specs()
        self.assertEqual(len(Spec.from_file(paths["c14"]).cliques), 843)
        self.assertEqual(len(Spec.from_file(paths["c16"]).cliques), 2207)
        prod = json.loads((SPEC_DIR / "prod32.json").read_text())
        self.assertTrue(prod["symmetric_closure"])

    def test_printed_units_match_benchmark_json(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for metric in declared["per_layer"]:
            self.assertEqual(unit_of(metric["name"]), metric["unit"], metric["name"])


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
        tr = Tracer(clock=ticks.__next__)
        with tr.span("root"):          # 0 .. 10
            with tr.span("a"):         # 1 .. 3
                pass
            with tr.span("b"):         # 4 .. 4.5
                pass
        selfs = self_times(tr.spans)
        self.assertEqual([selfs[s.span_id] for s in tr.spans], [7.5, 2.0, 0.5])
        self.assertEqual(totals_by_name(tr.spans)["root"], 10.0)
        self.assertEqual([s.parent for s in tr.spans], [None, 0, 0])

    def test_overlapping_children_count_once(self):
        self.assertEqual(covered([(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)], 0.0, 10.0), 5.0)

    def test_counts_accumulate(self):
        tr = Tracer()
        tr.count("x", 2)
        tr.count("x", 3)
        tr.peak("y", 4)
        tr.peak("y", 1)
        self.assertEqual(tr.counts, {"x": 5, "y": 4})


if __name__ == "__main__":
    unittest.main()
