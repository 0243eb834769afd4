#!/usr/bin/env python3
"""Tests of the host-cost benchmark's own checks and sampler.

    python3 perfbench/test_perfbench.py

Run from the root of a source checkout; builds the driver the way
run.py does, into .bench_build/perfbench.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.getcwd()


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build(ROOT)
        cls.tmp = tempfile.mkdtemp(prefix="test-", dir=run.build_dir(ROOT))
        cls.refs = run.load_references(ROOT, "service")
        cls.doc = cls.service("default")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    @classmethod
    def driver(cls, name, *flags):
        return run.run_driver(cls.exe, os.path.join(cls.tmp, name + ".json"),
                              *flags)

    @classmethod
    def service(cls, name, *flags):
        return cls.driver(name, "--workload=service", "--batches=1",
                          "--threads=4", *flags)

    def keys(self, doc):
        return [j["key"] for j in doc["jobs"]]

    def test_default_seed_reproduces_references(self):
        self.assertEqual(self.doc["batches"][0]["seed"], run.DEFAULT_SEED)
        self.assertEqual(run.check_jobs(self.doc, self.refs), {})

    def test_perturbed_reference_fails_the_job(self):
        refs = copy.deepcopy(self.refs)
        key = self.keys(self.doc)[3]
        refs[key]["metrics"]["latency_ns"]["commit_protocol"]["mean"] *= \
            1 + 1e-12
        failures = run.check_jobs(self.doc, refs)
        self.assertEqual(list(failures), [(0, 3)])
        self.assertIn("differs from the reference", failures[(0, 3)])

    def test_throwing_job_is_counted_failed(self):
        key = "t2/1M/Ideal/karma"
        doc = self.service("throw", "--throw-key=" + key)
        idx = self.keys(doc).index(key)
        failures = run.check_jobs(doc, self.refs)
        self.assertEqual(list(failures), [(0, idx)])
        self.assertIn("injected failure", failures[(0, idx)])
        self.assertEqual(run.attempted(doc), len(doc["jobs"]))

    def test_other_seeds_are_checked_by_invariants(self):
        doc = self.service("seed7", "--seed=7")
        # No reference applies to seed 7; an empty set must not matter.
        self.assertEqual(run.check_jobs(doc, {}), {})
        breaks = [
            (lambda m: m["htm"].__setitem__("commits",
                                            m["htm"]["commits"] + 1),
             "commits + aborts"),
            (lambda m: m["htm"]["aborts"].__setitem__(
                "explicit", m["htm"]["aborts"]["explicit"] + 1),
             "abort causes"),
            (lambda m: m.__setitem__("committed_ops",
                                     m["committed_ops"] - 1),
             "quota"),
            (lambda m: m["extra"].__setitem__("requests", 239.0),
             "request"),
        ]
        for mutate, message in breaks:
            broken = copy.deepcopy(doc)
            run_ = broken["batches"][0]["jobs"][5]
            result = json.loads(run_["result"])
            mutate(result["jobs"][0]["metrics"])
            run_["result"] = json.dumps(result)
            failures = run.check_jobs(broken, {})
            self.assertEqual(list(failures), [(0, 5)], message)
            self.assertIn(message, failures[(0, 5)])

    def test_sampler_attributes_spin_to_its_file(self):
        doc = self.driver("spin", "--mode=spin", "--seconds=0.6")
        samples = doc["samples"]
        chains = run.symbolize(self.exe, list(samples["exe"]))
        spin = sum(n for off, n in samples["exe"].items()
                   if run.bucket(chains[off], ROOT) == ("perfbench", "spin"))
        total = samples["outside"] + sum(samples["exe"].values())
        self.assertGreaterEqual(total, 50)
        self.assertGreaterEqual(spin / total, 0.9)
        counts = run.attribute(self.exe, samples, ROOT)
        self.assertEqual(counts["total"], total)

    def test_predictions_only_compare_runs_of_one_build_and_input(self):
        outdir = tempfile.mkdtemp(dir=self.tmp)
        run_id = {"seed": 42, "seconds": 30.0, "build": run.build_id(self.exe)}
        metrics = {"harness.machine_build_s": 2.0, "harness.teardown_s": 1.0,
                   "harness.run_s": 0.5, "workloads.build_s": 0.1,
                   "htm.sig_checks": 1, "sim.events_per_cpu_s": 1.0}

        def leave(workload, rid):
            with open(run.layers_path(outdir, workload), "w") as f:
                json.dump({"run": rid, "metrics": metrics}, f)

        for w in run.WORKLOADS:
            leave(w, run_id)
        self.assertEqual(len(run.predictions(outdir, run_id)), 3)
        for field, other in (("seed", 7), ("seconds", 10.0),
                             ("build", "0" * 16)):
            leave("scans", dict(run_id, **{field: other}))
            self.assertEqual(run.predictions(outdir, run_id), [], field)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(self.tmp, "bare")
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scans",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
