"""Self-tests of the LORI benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root; they build `perfbench` as run.py does and
take a few minutes (each workload runs three passes).
"""

import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402

NPROC = os.cpu_count() or 1
# Export directories; removed when the interpreter exits.
_TMP = tempfile.TemporaryDirectory(prefix="perfbench-selftest-")
WORKLOADS = ("surrogate-flow", "fault-learning", "system-sim")
# Counts that must repeat exactly: transient steps, golden sims, STA
# instances, injections, Monte Carlo runs and rollbacks (and the rest).
EXACT = (
    "circuit.golden.transient_steps",
    "circuit.mlchar.train.golden_steps",
    "circuit.golden.sims",
    "circuit.sta.instances",
    "arch.injections",
    "ftsched.mc_runs",
    "ftsched.rollbacks",
)


@functools.lru_cache(maxsize=None)
def binary():
    path = run.build()
    if path is None:
        raise RuntimeError("perfbench did not build")
    return path


@functools.lru_cache(maxsize=None)
def traced_pass(workload, threads, rep):
    """One traced pass at the exp-* seeds; returns (record, export dir)."""
    out = tempfile.mkdtemp(prefix=f"{workload}-{threads}-{rep}-", dir=_TMP.name)
    cmd = [binary(), "pass", "--workload", workload, "--seed", "0",
           "--threads", str(threads), "--traced", "--export", out]
    done = subprocess.run(cmd, env=run.child_env(threads), capture_output=True,
                          text=True, check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1]), out


def fmt(v):
    """lori-bench's table formatter (`fmt` in crates/bench/src/lib.rs)."""
    if v == 0.0:
        return "0"
    if abs(v) >= 1000.0 or abs(v) < 0.01:
        mantissa, exp = f"{v:.3e}".split("e")
        return f"{mantissa}e{int(exp)}"
    return f"{v:.4f}"


def table_row(text, label):
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells and cells[0] == label:
            return cells
    raise AssertionError(f"row {label!r} not found")


class SelfTest(unittest.TestCase):
    def test_counts_repeat_across_passes_and_threads(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = [traced_pass(w, NPROC, 0)[0], traced_pass(w, NPROC, 1)[0],
                        traced_pass(w, 1, 0)[0]]
                for r in runs:
                    self.assertEqual(r["failed"], 0, r["errors"])
                    self.assertTrue(all(r["checks"].values()), r["checks"])
                first = runs[0]
                for r in runs[1:]:
                    self.assertEqual(r["layer_counts"], first["layer_counts"])
                    self.assertEqual(r["digest"], first["digest"])
                    self.assertEqual(r["model_err"], first["model_err"])
                self.assertTrue(any(first["layer_counts"][k] > 0 for k in EXACT))

    def test_surrogate_flow_reproduces_exp_fig3(self):
        rec, out = traced_pass("surrogate-flow", NPROC, 0)
        with open(os.path.join(ROOT, "results", "exp-fig3-flow.txt")) as f:
            text = f.read()
        self.assertEqual(fmt(rec["model_err"]), table_row(text, "ML characterizer")[3])
        # A fresh exp-fig3-flow process: cold cache, no hits.
        fig3 = rec["step_counters"]["step.exp-fig3-flow"]
        self.assertEqual(fig3["cache.hits"], 0)
        self.assertEqual(fig3["cache.misses"], 16604)
        with open(os.path.join(out, "exp-fig3-flow.guardbands.json")) as f:
            got = json.load(f)
        nominal = table_row(text, "nominal (fresh, no SHE)")
        accurate = table_row(text, "per-instance accurate")
        worst = table_row(text, "worst-case corner")
        self.assertEqual(fmt(got["nominal_max_arrival_ps"]), nominal[1])
        self.assertEqual(fmt(got["accurate_max_arrival_ps"]), accurate[1])
        self.assertEqual(fmt(got["accurate_margin_ps"]), accurate[2])
        self.assertEqual(fmt(got["worst_case_max_arrival_ps"]), worst[1])
        self.assertEqual(fmt(got["worst_case_margin_ps"]), worst[2])
        self.assertIn(f"pessimism reduction vs worst-case corner: "
                      f"{got['pessimism_reduction'] * 100:.1f} %", text)
        # The full artifact is not committed; compare it when a local
        # exp-fig3-flow run has written it.
        full = os.path.join(ROOT, "results", "exp-fig3-flow.guardbands.json")
        if os.path.exists(full):
            with open(full) as f:
                self.assertEqual(got, json.load(f))

    def test_fault_learning_reproduces_anomaly_metrics(self):
        _, out = traced_pass("fault-learning", NPROC, 0)
        with open(os.path.join(out, "exp-anomaly-detection.metrics.json")) as f:
            got = json.load(f)
        with open(os.path.join(ROOT, "results", "exp-anomaly-detection.metrics.json")) as f:
            self.assertEqual(got, json.load(f))

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "system-sim",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
