"""The benchmark's own tests, at the smoke size.

    python3 -m unittest discover -s sstbench/tests -v

Run from the repository root. They build the sstbench program as the
benchmark does, so the first run takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "sstbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(RUN.parent))
from run import EXACT_COUNTS  # noqa: E402


def work_dir():
    base = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "tests"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def bench(workload, seed, trace, *extra, cwd=ROOT):
    """Runs the benchmark at the smoke size; (exit code, result or None)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "sstbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.3", "--trace",
         str(trace), "--size", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


class SmokeTest(unittest.TestCase):
    def check_result(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in metrics])
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = bench(workload, 3, trace)
                    self.assertEqual(code, 0)
                    self.check_result(result, SPEC[key])
                    if trace == 0:
                        self.assertEqual(
                            result["metrics"]["ok_frac"]["value"], 1.0)
                        for m in SPEC["end_to_end"]:
                            self.assertGreater(
                                result["metrics"][m["name"]]["value"], 0.0)


class OutputCheckTest(unittest.TestCase):
    def test_tampered_expected_digest_fails_every_run(self):
        expected = json.loads((ROOT / "sstbench" / "expected.json")
                              .read_text(encoding="utf-8"))
        for digests in expected["smoke"].values():
            for seed in digests:
                digests[seed] = "0" * 16
        tampered = work_dir() / "expected.json"
        tampered.write_text(json.dumps(expected), encoding="utf-8")
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = bench(workload, 1, 0, "--expected",
                                     str(tampered))
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 0.0)

    def test_exits_nonzero_without_result_when_sources_are_absent(self):
        bare = work_dir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "sstbench", bare / "sstbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "sstbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class RefusalTest(unittest.TestCase):
    def test_refuses_to_time_an_sst_check_build(self):
        # A second build tree of its own: this test takes about a minute.
        build = work_dir() / "check-build"
        for cmd in (["cmake", "-S", str(ROOT / "sstbench"), "-B", str(build),
                     "-DCMAKE_BUILD_TYPE=Release", "-DSST_CHECK=ON"],
                    ["cmake", "--build", str(build), "--target", "sstbench",
                     "-j", str(os.cpu_count() or 1)]):
            subprocess.run(cmd, check=True, capture_output=True)
        binary = str(build / "sstbench")
        manifest = json.loads(subprocess.run(
            [binary, "--manifest"], check=True, capture_output=True,
            text=True).stdout)
        self.assertTrue(manifest["sst_check"])
        proc = subprocess.run([binary, "--workload", WORKLOADS[0], "--size",
                               "smoke"], input="1 0\n", capture_output=True,
                              text=True)
        self.assertEqual(proc.returncode, 3)
        self.assertEqual(proc.stdout, "")


class ExactCountTest(unittest.TestCase):
    def test_exact_counts_repeat_across_same_seed_runs(self):
        # Each traced run already requires its own traced repetitions to
        # agree; this compares two separate runs.
        touched = {
            "mcast_feedback": ("sim.events", "core.nacks_sent",
                               "core.nacks_suppressed"),
            "dense_sharded": ("sim.events", "core.nacks_sent",
                              "shard.epochs_executed"),
            "paper_grid": ("sim.events", "runner.tasks", "core.data_tx"),
            "sstp_churn": ("sim.events", "sstp.summary_tx", "sstp.sig_tx"),
        }
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [bench(workload, 5, 1)[1] for _ in range(2)]
                counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS}
                          for r in runs]
                self.assertEqual(counts[0], counts[1])
                for k in touched[workload]:
                    self.assertGreater(counts[0][k], 0, k)


if __name__ == "__main__":
    unittest.main()
