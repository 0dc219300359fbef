"""Self-tests of the benchmark: planted wrong answers must count as failures.

Run from the root of a checkout::

    python3 perfbench/selftest.py

They take about ten seconds.  The file name keeps pytest's default collection
(``test_*.py``) away from it, so the repository's own test run is unchanged.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import jobs as J  # noqa: E402
import run as R  # noqa: E402


def stub(text: str, code: int = 0) -> list[str]:
    """A process that prints ``text`` and exits with ``code``."""
    return [sys.executable, "-c", f"import sys; sys.stdout.write({text!r}); sys.exit({code})"]


class PlantedFailures(unittest.TestCase):
    """Each planted defect fails its job, and only its job."""

    @classmethod
    def setUpClass(cls):
        cls.bench = R.Bench(ROOT)
        cls.bench.environment()
        cls.jobs = {job.job_id: job for job in J.build_jobs("descent-dims", 1, str(cls.bench.work))}

    def test_planted_defects_raise_fail_frac(self):
        good = self.jobs["pi-closed"]
        member = self.jobs["membership-0"]
        wrong_membership = J.Job("planted-membership", member.argv, J.expect_membership(False), member.size)

        product = self.jobs["product-biword-prec"]
        outcome = self.bench.run_job(product)
        self.assertIsNone(outcome.error)
        payload = json.loads((self.bench.work / "out" / "product-biword-prec.stdout").read_text())
        payload[0]["coeff_num"] += 1
        tampered = J.Job("planted-product", [], product.check, product.size, command=stub(json.dumps(payload)))

        failing_suite = json.dumps({"suite": "tau", "max_weight": 6, "failures": [
            {"identity": "tau-on-words", "inputs": ["a1"], "lhs": "0", "rhs": "a1"}]})
        verify_failures = J.Job("planted-verify", [], J.expect_verify_pass("tau"), (),
                                command=stub(failing_suite, 0))

        passing_suite = json.dumps({"suite": "tau", "max_weight": 6, "failures": []})
        bad_exit = J.Job("planted-exit", [], J.expect_verify_pass("tau"), (), command=stub(passing_suite, 3))

        hang = J.Job("planted-timeout", [], J.expect_verify_pass("tau"), (), timeout_s=0.5,
                     command=[sys.executable, "-c", "import time; time.sleep(60)"])

        planted = [wrong_membership, tampered, verify_failures, bad_exit, hang]
        t0 = time.perf_counter()
        wall, outcomes = self.bench.run_pass([good, *planted])
        self.assertLess(time.perf_counter() - t0, 30, "the hung job was not killed at its timeout")
        by_id = {o.job_id: o for o in outcomes}
        self.assertIsNone(by_id["pi-closed"].error)
        for job in planted:
            self.assertIsNotNone(by_id[job.job_id].error, job.job_id)
        self.assertIn("timed out", by_id["planted-timeout"].error)
        fail_frac = sum(o.error is not None for o in outcomes) / len(outcomes)
        self.assertAlmostEqual(fail_frac, 5 / 6)

    def test_unreadable_output_is_a_failure(self):
        job = J.Job("planted-garbage", [], self.jobs["pi-closed"].check, (), command=stub("not json"))
        self.assertIn("unreadable output", self.bench.run_job(job).error)


class SpeedProbe(unittest.TestCase):
    def test_times_are_scaled_by_the_nearby_probes(self):
        slow = (2 * R.PROBE_WALL_S, 2 * R.PROBE_CPU_S)
        slower = (4 * R.PROBE_WALL_S, 4 * R.PROBE_CPU_S)
        for got in R.speed_scales(slow, slower):
            self.assertAlmostEqual(got, 1 / 3)

    def test_probed_pass_scales_every_job(self):
        bench = R.Bench(ROOT)
        bench.environment()
        jobs = [j for j in J.build_jobs("descent-dims", 1, str(bench.work)) if j.job_id.startswith("pi-")]
        outcomes, scaled = R.probed_pass(bench, jobs)
        self.assertEqual([o.job_id for o in outcomes], [j.job_id for j in jobs])
        self.assertTrue(all(o.error is None for o in outcomes))
        self.assertEqual(len(scaled), len(jobs))
        self.assertTrue(all(w > 0 and c > 0 for w, c in scaled))


class Inputs(unittest.TestCase):
    def test_seeds_change_content_not_size(self):
        for workload in J.WORKLOADS:
            a = J.build_jobs(workload, 1, "w")
            b = J.build_jobs(workload, 2, "w")
            again = J.build_jobs(workload, 1, "w")
            self.assertEqual([j.job_id for j in a], [j.job_id for j in b])
            self.assertEqual([j.size for j in a], [j.size for j in b])
            self.assertEqual([j.argv for j in a], [j.argv for j in again])
            if workload != "action-verify":  # its suites take no operands
                self.assertNotEqual([j.argv for j in a], [j.argv for j in b])

    def test_membership_operands_have_fixed_term_counts(self):
        by_size = J.tree_classes(J.MEMBERSHIP_WEIGHT)
        rng = random.Random(0)
        counts = {len(J.membership_operand(rng, by_size, m)) for m in (True, False) * 20}
        self.assertEqual(counts, {sum(J.MEMBERSHIP_CLASS_SIZES)})


class OraclesAgreeWithLibrary(unittest.TestCase):
    """The benchmark's own routes agree with the library on small inputs."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(ROOT / "src"))

    def test_closed_forms(self):
        from shufflealg import series as S

        n = 30
        self.assertEqual(J.biword_counts(n), [int(S.biword_count_series()[i]) for i in range(n + 1)])
        self.assertEqual(J.a002212(n)[1:], [int(S.descent_dim_series_closed()[i]) for i in range(1, n + 1)])
        self.assertEqual(J.primitive_counts(n)[1:], [int(S.primitive_dim_series()[i]) for i in range(1, n + 1)])

    def test_tree_classes_decide_membership(self):
        from shufflealg import descent as D
        from shufflealg.biwords import Biword
        from shufflealg.lincomb import LinComb

        n = 5
        by_size = J.tree_classes(n)
        self.assertEqual(sum(len(g) for g in by_size.values()), D.descd_dimension(n))
        rng = random.Random(5)
        sizes = (2, 3, 4)
        for member in (True, False) * 5:
            terms = []
            for size in sizes:
                c = rng.randint(1, 5)
                terms.extend((b, c) for b in rng.choice(by_size[size]))
            if not member:
                terms[0] = (terms[0][0], terms[0][1] + 1)
            x = LinComb((Biword(*b), c) for b, c in terms)
            self.assertEqual(D.descd_membership(x, n), member)

    def test_products_and_coproducts(self):
        from shufflealg import biwords as B

        def as_dict(lc):
            out = {}
            for key, c in lc.terms().items():
                if isinstance(key, tuple):
                    key = tuple((k.perm, k.deg) for k in key)
                else:
                    key = (key.perm, key.deg)
                out[key] = c
            return out

        rng = random.Random(7)
        for _ in range(10):
            a = J.random_biword(rng, 3)
            b = J.random_biword(rng, 3)
            ba, bb = B.Biword(*a), B.Biword(*b)
            self.assertEqual(J.half_product(a, b, "prec"), as_dict(B.biword_prec(ba, bb)))
            self.assertEqual(J.half_product(a, b, "succ"), as_dict(B.biword_succ(ba, bb)))
            self.assertEqual(J.half_product(a, b, "star"), as_dict(B.biword_star(ba, bb)))
            self.assertEqual(J.cuts(a, "prec"), as_dict(B.coproduct_prec(ba)))
            self.assertEqual(J.cuts(a, "succ"), as_dict(B.coproduct_succ(ba)))
            self.assertEqual(J.cuts(a, "full"), as_dict(B.hopf_coproduct(B.LinComb.single(ba))))
            c = J.compatible_left(rng, b)
            self.assertEqual(J.internal_product(c, b), as_dict(B.internal_compose(B.Biword(*c), bb)))
            self.assertTrue(J.internal_product(c, b))

    def test_word_presentation_matches_library(self):
        from shufflealg import rigidity as Rg
        from shufflealg import words as W

        ours = J.word_presentation(4, 2)
        theirs = Rg.presentation_to_json(Rg.shuffle_presentation(W.standard_alphabet(4, 2), 4))
        self.assertEqual(ours, theirs)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = ROOT / ".perfbench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "descent-dims", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
