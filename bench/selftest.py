"""Self-tests of the benchmark on tiny inputs (about 20 s).

    python3 bench/selftest.py

They check that tracing changes no output byte, that span self times add
up to the pass, are never negative and that every span lies inside its
parent, that the nesting check catches a misplaced span, that the
independent KKT check catches a perturbed
coefficient, that a missing trace target is reported instead of crashing,
and that the generator is deterministic. Scratch files go under
``.bench_out/selftest``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import unittest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]
SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    DENSITY, DESIGN_SEED, LAG, MAGNITUDE, WORKLOADS, Workload, generate, run_pass)

import sparsevar.cli as cli  # noqa: E402

TINY = (
    Workload("tiny_tune", "tune", k=3, t=300),
    Workload("tiny_forecast", "forecast", k=3, t=220, rho=0.5,
             models=(("lasso", "lasso", "per_origin"), ("fgls", "fgls-lasso", "first")),
             n_origins=10),
    Workload("tiny_granger", "granger", k=3, t=200),
)


def _generate(w: Workload, seed: int = 1) -> tuple[str, dict]:
    d = os.path.join(SCRATCH, w.name, "input")
    truth = generate(w, seed, d)
    return os.path.join(d, "panel.csv"), truth


def _call(argv):
    return cli.main(argv)


class TracedPassTest(unittest.TestCase):
    def test_traced_outputs_identical_and_self_times_sum(self):
        for w in TINY:
            with self.subTest(workload=w.name):
                panel, truth = _generate(w)
                plain = os.path.join(SCRATCH, w.name, "plain")
                traced = os.path.join(SCRATCH, w.name, "traced")
                os.makedirs(plain)
                os.makedirs(traced)
                self.assertTrue(all(code == 0 for _, code in run_pass(w, panel, plain, _call)))

                rec = spans.Recorder()
                tracer = spans.Tracer(rec)
                tracer.install()
                try:
                    root = rec.begin("bench.pass")
                    calls = run_pass(w, panel, traced, _call)
                    rec.end(root)
                finally:
                    tracer.uninstall()
                self.assertTrue(all(code == 0 for _, code in calls))
                self.assertEqual(checks.differing_files(plain, traced), [])

                root_s = rec.spans[root][2] - rec.spans[root][1]
                selfs = spans.self_times(rec.spans)
                self.assertAlmostEqual(sum(selfs), root_s, delta=1e-9)
                self.assertGreaterEqual(min(selfs), -1e-9)
                self.assertEqual(spans.nesting_violations(rec.spans), 0)
                self.assertGreater(len(rec.spans), 1)
                self.assertTrue(all(s[3] is not None for s in rec.spans[1:]))
                metrics = tracer.pass_metrics()
                self.assertGreater(metrics["cli.self_s"], 0.0)

                tally = checks.Tally()
                values = gen.read_panel_values(panel, w.k)
                checks.check_pass(w, traced, values, truth, tally)
                self.assertEqual(tally.failed, 0, tally.checks)

    def test_misplaced_span_is_flagged(self):
        good = [["root", 0.0, 10.0, None], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1]]
        self.assertEqual(spans.nesting_violations(good), 0)
        self.assertEqual(min(spans.self_times(good)), 1.0)
        late = [list(s) for s in good]
        late[2][2] = 6.0  # b ends after its parent a, and outlasts it
        self.assertEqual(spans.nesting_violations(late), 1)
        self.assertLess(min(spans.self_times(late)), 0.0)

    def test_wrappers_are_removed(self):
        import sparsevar.cv as cv
        import sparsevar.lasso as lasso

        originals = (cli.main, cv.lasso_path, lasso.lasso_path)
        tracer = spans.Tracer(spans.Recorder())
        tracer.install()
        self.assertIsNot(cv.lasso_path, originals[1])
        self.assertIs(cv.lasso_path, lasso.lasso_path)
        tracer.uninstall()
        self.assertEqual((cli.main, cv.lasso_path, lasso.lasso_path), originals)

    def test_missing_target_is_reported_absent(self):
        extra = spans.Target("sparsevar.lasso", "no_such_function", time="lasso.gone_s")
        tracer = spans.Tracer(spans.Recorder(), spans.TARGETS + (extra,))
        self.assertIn("sparsevar.lasso.no_such_function", tracer.absent)
        self.assertNotIn("lasso.gone_s", tracer.metric_names())
        tracer.install()
        tracer.uninstall()


class KktTest(unittest.TestCase):
    def test_perturbed_coefficient_is_flagged(self):
        w = TINY[0]
        panel, _ = _generate(w)
        out = os.path.join(SCRATCH, w.name, "kkt")
        os.makedirs(out)
        self.assertTrue(all(code == 0 for _, code in run_pass(w, panel, out, _call)))
        with open(os.path.join(out, "model.json"), encoding="utf-8") as fh:
            model = json.load(fh)
        A = np.array(model["A"])
        lam = model["solver"]["lambda"]
        values = gen.read_panel_values(panel, w.k)
        self.assertLessEqual(checks.kkt_violation(values, A, lam, LAG), checks.KKT_BOUND)
        for j in (int(np.flatnonzero(A)[0]), int(np.flatnonzero(A == 0)[0])):
            bad = A.copy()
            bad.flat[j] += 1e-3
            self.assertGreater(checks.kkt_violation(values, bad, lam, LAG), checks.KKT_BOUND)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_and_units_match_what_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        import run

        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(end_to_end, run.END_TO_END_UNITS)
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        traced = spans.Tracer(spans.Recorder()).metric_names()
        printed = {name: run.layer_unit(name) for name in
                   traced + list(run.IMPORT_METRICS.values()) + ["trace.overhead_ratio"]}
        self.assertEqual(per_layer, printed)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        w = TINY[1]
        a = os.path.join(SCRATCH, "gen_a")
        b = os.path.join(SCRATCH, "gen_b")
        generate(w, 7, a)
        generate(w, 7, b)
        self.assertEqual(checks.differing_files(a, b), [])
        generate(w, 8, b)
        self.assertEqual(checks.differing_files(a, b), ["panel.csv", "truth.json"])

    def test_designs_are_stable_with_a_cross_edge(self):
        for w in WORKLOADS.values():
            A = gen.sparse_coefficients(np.random.default_rng(DESIGN_SEED), w.k, LAG,
                                        DENSITY, MAGNITUDE)
            self.assertLessEqual(gen.spectral_radius(A, w.k, LAG), gen.MAX_RADIUS)
            self.assertTrue(gen.true_edges(A, w.k, LAG))


if __name__ == "__main__":
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    unittest.main()
