"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of the source tree. The end-to-end cases build the
benchmark (under $CARGO_TARGET_DIR/perfbench, default .bench_build) and run
one short point per mode at a seed other than the default.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 29  # not the default (1), and not a seed the bounds were tuned on


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


class BenchmarkFileTest(unittest.TestCase):
    def test_shape(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in bench[key]] + list(run.WORKLOADS)
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_frozen_specs_exist(self):
        for wl in run.WORKLOADS.values():
            self.assertTrue(os.path.isfile(
                os.path.join(run.HERE, "workloads", wl["spec"])))


class HelperTest(unittest.TestCase):
    def test_nearest_rank_leaves_ten_beyond_p99_of_1000(self):
        values = list(range(1, 1001))
        self.assertEqual(run.nearest_rank(values, 99), 990)
        self.assertEqual(run.nearest_rank(values, 50), 500)
        self.assertEqual(run.nearest_rank([7.0], 99), 7.0)

    def test_layer_times_self_excludes_children(self):
        events = [
            {"name": "harness.point", "cat": "harness", "dur": 100.0,
             "args": {"parent": -1}},
            {"name": "stats.drain", "cat": "stats", "dur": 40.0,
             "args": {"parent": 0}},
            {"name": "transport.release", "cat": "transport", "dur": 15.0,
             "args": {"parent": 1}},
            {"name": "stats.output", "cat": "stats", "dur": 10.0,
             "args": {"parent": 0}},
        ]
        os.makedirs(run.build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as d:
            path = os.path.join(d, "trace.json")
            with open(path, "w") as f:
                json.dump({"traceEvents": events}, f)
            by_name, self_by_name, busy, self_time = run.layer_times(path)
        self.assertAlmostEqual(busy["harness"], 100e-6)
        self.assertAlmostEqual(self_time["harness"], 50e-6)
        self.assertAlmostEqual(busy["stats"], 50e-6)
        self.assertAlmostEqual(self_time["stats"], 35e-6)
        self.assertAlmostEqual(self_by_name["stats.drain"], 25e-6)
        self.assertAlmostEqual(by_name["transport.release"], 15e-6)


class EndToEndTest(unittest.TestCase):
    """Each mode at a non-default seed: the checks pass, and the metrics
    printed are exactly the ones BENCHMARK.json declares, with its units."""

    def check_mode(self, trace):
        bench = load_benchmark()
        declared = {m["name"]: m["unit"]
                    for m in bench["per_layer" if trace else "end_to_end"]}
        status, lines, err = run_bench("--workload", "k16_perm_pdes",
                                       "--seed", str(SEED), "--seconds", "1",
                                       "--trace", str(trace))
        self.assertEqual(status, 0, err)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         declared)
        self.assertEqual(json.loads(lines[-2])["provenance"]["seed"], SEED)
        return result["metrics"]

    def test_untraced(self):
        m = self.check_mode(0)
        self.assertEqual(m["flows_ok_ratio"]["value"], 1.0)
        self.assertGreater(m["wall_s"]["value"], m["setup_s"]["value"])

    def test_traced(self):
        m = self.check_mode(1)
        self.assertEqual(m["exec.lanes"]["value"], 17)
        self.assertEqual(m["stats.rows"]["value"], 1024)

    def test_refuses_without_sources(self):
        os.makedirs(run.build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as d:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), d)
            shutil.copytree(run.HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            status, lines, _ = run_bench("--workload", "k8_hadoop_streamed",
                                         "--seed", "1", "--seconds", "1",
                                         "--trace", "0", cwd=d)
        self.assertNotEqual(status, 0)
        self.assertFalse(any(line.startswith('{"correct"') for line in lines))


if __name__ == "__main__":
    unittest.main()
