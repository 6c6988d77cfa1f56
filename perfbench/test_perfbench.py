"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -v

They run each workload at a shrunken size, so they take seconds, not the
minutes a real run takes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from layers import install_spans  # noqa: E402
from spans import Patcher, Tracer, descendants_per_call, self_times, summarize  # noqa: E402
from speed import REFERENCE_KERNEL_S, SpeedProbe  # noqa: E402

BENCH = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
SPEC = run.load_json(os.path.join(HERE, "workloads.json"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_cli(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        done = run_cli("--workload", workload, "--seed", "0", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
        self.assertEqual(done.returncode, 0, done.stderr)
        line = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"], done.stdout)
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)  # error_rate = failed / attempted = 0
        expected = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(line["metrics"]), [m["name"] for m in expected])
        for m in expected:
            got = line["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)


class Pins(unittest.TestCase):
    def test_wrong_digest_fails_the_item_and_right_one_passes(self):
        bad, _ = run.run("verify-p2-sweep", 0, 0, trace=False, tiny=True, pins={"0": "0" * 64})
        self.assertGreater(bad["failed"] / bad["attempted"], 0)
        self.assertFalse(bad["correct"])

        cd = run.import_cyclodiff()
        argv = run.workload_spec("verify-p2-sweep", tiny=True)["argv"] + ["--seed", "0"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.assertEqual(cd.cli.main(argv), 0)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        good, _ = run.run("verify-p2-sweep", 0, 0, trace=False, tiny=True, pins={"0": digest})
        self.assertEqual(good["failed"], 0)
        self.assertTrue(good["correct"])


class SelfTimes(unittest.TestCase):
    # (id, parent, name, item, start, end, error, tag)
    SPANS = [
        (5, 2, "e", 0, 12, 18, None, None),
        (2, 1, "b", 0, 10, 30, None, None),
        (3, 1, "c", 0, 20, 50, None, None),  # overlaps b: covered once
        (4, 1, "b", 0, 60, 70, None, None),
        (6, 1, "d", 0, 95, 120, None, None),  # runs past its parent: clipped
        (1, 0, "a", 0, 0, 100, None, None),
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        own = self_times(self.SPANS)
        self.assertEqual(own, {1: 100 - 40 - 10 - 5, 2: 14, 3: 30, 4: 10, 5: 6, 6: 25})

    def test_summary_and_nesting_ratio(self):
        table = summarize(self.SPANS)
        self.assertEqual(table["b"], {"calls": 2, "self_ns": 24, "total_ns": 30})
        self.assertEqual(descendants_per_call(self.SPANS, "a", "e"), 1.0)
        self.assertEqual(descendants_per_call(self.SPANS, "b", "e"), 0.5)
        self.assertEqual(descendants_per_call(self.SPANS, "x", "e"), 0.0)

    def test_tail_percentile(self):
        self.assertEqual(run.percentile_tail([3, 1, 2], 100), (3, 0))
        self.assertEqual(run.percentile_tail(list(range(40)), 75), (29, 10))
        self.assertEqual(run.percentile_tail(list(range(100)), 90), (89, 10))


class Probe(unittest.TestCase):
    def test_scaling_excludes_probe_time_and_uses_the_kernel_speed(self):
        probe = SpeedProbe(seed_samples=2)
        probe.samples = [5.0, 2 * REFERENCE_KERNEL_S, 2 * REFERENCE_KERNEL_S]
        start = time.perf_counter()
        mark = (len(probe.samples), 0.0, start - 1.0)
        probe.busy = 0.2  # spent in the probe since the mark
        raw, scaled = probe.since(mark)
        self.assertAlmostEqual(raw, time.perf_counter() - start + 0.8, delta=0.05)
        self.assertAlmostEqual(scaled, raw / 2)
        probe.samples.append(4 * REFERENCE_KERNEL_S)  # a sample inside the interval wins
        self.assertAlmostEqual(probe.since(mark)[1], probe.since(mark)[0] / 4, delta=1e-3)

    def test_probe_samples_while_open_and_restores_the_signal(self):
        before = signal.getsignal(signal.SIGALRM)
        with SpeedProbe(interval=0.01) as probe:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pass
        self.assertGreater(len(probe.samples), probe.seed_samples)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Wrapping(unittest.TestCase):
    def test_wrappers_fire_where_names_are_looked_up(self):
        with SpeedProbe() as probe:
            bench = run.Bench(run.workload_spec("verify-p3", tiny=True), 0, probe)
            bench.setup()
        cd = bench.cd
        bound = {
            "harness.divisibility_exponent": (cd.harness, "divisibility_exponent"),
            "harness.estimate_constants": (cd.harness, "estimate_constants"),
            "cli.estimate_constants": (cd.cli, "estimate_constants"),
            "cli.run_all": (cd.cli, "run_all"),
            "tower.mul": (cd.tower.CyclotomicTower, "mul"),
        }
        before = {k: getattr(owner, attr) for k, (owner, attr) in bound.items()}
        tracer, patcher = Tracer(), Patcher()
        install_spans(cd, tracer, patcher)
        try:
            for key, (owner, attr) in bound.items():
                self.assertIsNot(getattr(owner, attr), before[key], key)
            bench.run_pass(0, hooks=[tracer])
        finally:
            patcher.restore()
        self.assertEqual(bench.failures, [])
        for key, (owner, attr) in bound.items():
            self.assertIs(getattr(owner, attr), before[key], key)
        names = {s[2] for s in tracer.spans}
        for name in ("cli.main", "constants.estimate_constants", "harness.run_all",
                     "harness.fouvar", "differentials.divisibility_exponent",
                     "differentials.flat_decompose", "constants.norm_cell.0-1"):
            self.assertIn(name, names)
        table = summarize(tracer.spans)
        self.assertEqual(table["cli.main"]["calls"], 1)
        self.assertEqual({s[3] for s in tracer.spans}, {0})  # every span carries its item id
        # mul nested inside invert is recorded as its descendant
        self.assertGreater(descendants_per_call(tracer.spans, "tower.invert", "tower.mul"), 0)

    def test_unexercised_names_zero_metrics_of_rows_for_the_workload(self):
        layers = [
            {"metrics": ["a.calls", "b.calls"], "exercised_by": ["w1"]},
            {"metrics": ["c.calls"], "exercised_by": ["w2"]},
        ]
        metrics = {"a.calls": 3, "b.calls": 0, "c.calls": 0}
        self.assertEqual(run.unexercised(metrics, layers, "w1"), ["b.calls"])
        self.assertEqual(run.unexercised(metrics, layers, "w2"), ["c.calls"])


class Spec(unittest.TestCase):
    def test_benchmark_json_matches_the_workload_spec(self):
        self.assertEqual(WORKLOADS, list(SPEC["workloads"]))
        names = [m["name"] for m in BENCH["per_layer"]]
        in_rows = [m for row in SPEC["layers"] for m in row["metrics"]]
        self.assertEqual(sorted(in_rows), sorted(names))  # each metric in exactly one row
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        for row in SPEC["layers"]:
            self.assertLessEqual(set(row["exercised_by"]), set(WORKLOADS), row["id"])
            for pair in row["moves"] + row.get("unchanged", []):
                self.assertIn(pair["metric"], e2e, row["id"])
                self.assertIn(pair["workload"], WORKLOADS, row["id"])
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_without_the_program_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
            done = run_cli("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                           "--trace", "0", cwd=tmp)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
