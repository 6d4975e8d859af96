"""Self-tests of the benchmark's own machinery.

Usage::

    python3 bench/selftest.py

Checks that tracing leaves job output byte-identical, that the correctness
checker flags a perturbed value, a missing row and a NaN, and that the
corpus generator is deterministic per seed, gives every seed the same term
shape and stays in the builtin term class.  The file is not named
``test_*.py`` so that the repository's test suite does not collect it.
"""

from __future__ import annotations

import copy
import json
import sys
import time
import unittest
from fractions import Fraction

import check
import corpus
import run

SMALL_JOBS = [
    run.Job("small-exact", "cli", ("equiv", "--dim", "2", "--k", "1")),
    run.Job(
        "small-mc",
        "cli",
        ("equiv", "--dim", "2", "--k", "1", "--p", "3", "--method", "monte-carlo", "--samples", "400"),
    ),
]


def _run(job: run.Job, traced: bool) -> run.JobRun:
    run.WORK.mkdir(exist_ok=True)
    return run.run_job(job, traced, run.job_env(), time.monotonic() + 120)


class TracingKeepsOutput(unittest.TestCase):
    def test_traced_stdout_is_byte_identical(self):
        for job in SMALL_JOBS:
            plain = _run(job, False)
            traced = _run(job, True)
            self.assertEqual(plain.code, 0, job.id)
            self.assertEqual(traced.code, 0, job.id)
            self.assertEqual(plain.stdout, traced.stdout, job.id)
            stats = traced.stamp["trace"]["stats"]
            self.assertEqual(stats["cli.main"][0], 1)
            self.assertGreater(stats["profile.eval"][0], 0)
        self.assertGreater(stats["quad.sphere_sampler.points"][0], 0)


class CheckerFlagsBadOutput(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = _run(SMALL_JOBS[1], False)
        cls.stdout = out.stdout
        cls.doc = json.loads(out.stdout)
        cls.ref = check.summarize(cls.doc)

    def _problems(self, doc) -> list[str]:
        return check.check_job(0, json.dumps(doc).encode(), self.ref)[0]

    def test_unchanged_output_passes(self):
        self.assertEqual(check.check_job(0, self.stdout, self.ref)[0], [])

    def test_perturbed_exact_value(self):
        doc = copy.deepcopy(self.doc)
        row = next(e for e in doc["entries"] if e["method"] == "exact-angular" and e["value"])
        row["value"] *= 1 + 1e-6
        self.assertTrue(self._problems(doc))

    def test_monte_carlo_value_within_and_beyond_four_errors(self):
        doc = copy.deepcopy(self.doc)
        row = next(e for e in doc["entries"] if e["method"] == "monte-carlo" and e["err"])
        base = row["value"]
        row["value"] = base + 5.0 * row["err"]  # 5 err < 4 * sqrt(2) err
        self.assertEqual(self._problems(doc), [])
        row["value"] = base + 6.0 * row["err"]
        self.assertTrue(self._problems(doc))

    def test_missing_row(self):
        doc = copy.deepcopy(self.doc)
        del doc["entries"][3]
        self.assertTrue(any("missing row" in p for p in self._problems(doc)))

    def test_nan_is_rejected(self):
        text = self.stdout.decode()
        value = repr(self.doc["entries"][0]["value"])
        bad = text.replace(value, "NaN", 1).encode()
        self.assertNotEqual(bad, self.stdout)
        problems, got = check.check_job(0, bad, None)
        self.assertTrue(problems)
        self.assertIsNone(got)

    def test_nonzero_exit_fails(self):
        self.assertTrue(check.check_job(2, self.stdout, None)[0])

    def test_failed_verification_and_changed_names(self):
        doc = {"suite": "gram", "params": {}, "passed": True,
               "checks": [{"name": "a", "pass": True, "error": 0.0}]}
        ref = check.summarize(doc)
        self.assertEqual(check.check_job(0, json.dumps(doc).encode(), ref)[0], [])
        doc["passed"] = False
        self.assertTrue(check.check_job(0, json.dumps(doc).encode(), ref)[0])
        doc["passed"] = True
        doc["checks"][0]["name"] = "b"
        self.assertTrue(check.check_job(0, json.dumps(doc).encode(), ref)[0])


class CorpusGenerator(unittest.TestCase):
    def test_deterministic_per_seed(self):
        self.assertEqual(corpus.generate(5), corpus.generate(5))
        self.assertNotEqual(corpus.generate(5), corpus.generate(6))

    def test_same_term_shape_for_every_seed(self):
        def keys(docs):
            return [[(a, b) for _, a, b in doc["terms"]] for doc in docs]

        self.assertEqual(keys(corpus.generate(5)), keys(corpus.generate(6)))
        self.assertEqual(keys(corpus.generate(5))[len(corpus.CANONICAL):], [
            [(a, str(b)) for a, b in entry] for entry in corpus.shape()
        ])

    def test_builtin_term_class_with_exact_coefficients(self):
        from radsob.profile import load_corpus

        path = run.WORK / "corpus-selftest.json"
        run.WORK.mkdir(exist_ok=True)
        corpus.write(11, path)
        entries = load_corpus(path)
        docs = corpus.generate(11)
        self.assertEqual(len(entries), 24)
        for idx, (entry, doc) in enumerate(zip(entries, docs)):
            terms = [(Fraction(c), a, Fraction(b)) for c, a, b in doc["terms"]]
            self.assertEqual(entry.profile.terms, tuple(terms))
            if idx < len(corpus.CANONICAL):
                continue
            gen = idx - len(corpus.CANONICAL)
            self.assertEqual(len(terms), 1 + gen % 3)
            for c, a, b in terms:
                self.assertEqual((c * 8).denominator, 1)
                self.assertTrue(0 < abs(c) <= 2)
                self.assertIn(a, corpus.POWERS)
                self.assertIn(b, corpus.DECAYING if gen % 2 == 0 else corpus.ALL_DECAYS)
            self.assertEqual(gen % 2 == 0, entry.profile.min_decay > 0)


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    unittest.main()
