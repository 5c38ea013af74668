#!/usr/bin/env python3
"""Tests of the benchmark itself (not collected by the package's pytest run).

    python3 perfbench/bench_selftest.py        # about 15 s

They run the real program on shrunken inputs, so they need ``src/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402

TAG = "-selftest"


def tiny(name: str, seed: int = wl.DEFAULT_SEED) -> dict:
    """The workload's inputs, cut down to a few rows of the same kind."""
    inputs = wl.make_inputs(name, seed)
    if inputs["kind"] == "scan":
        inputs["cases"] = inputs["cases"][:2]
        inputs["rows"] = 2
        return inputs
    grid = [1e3, 1e4]
    inputs["config"]["gamma_grid"] = {"explicit": grid}
    if inputs["entries"] is None:
        inputs["config"]["surface"]["l_max"] = 2
        n_eta = 2
    else:
        inputs["entries"] = inputs["entries"][:2]
        n_eta = 1
    inputs["rows"] = n_eta * len(grid)
    return inputs


def run_quiet(inputs_list, trace=False):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        records = run.run_all(inputs_list, 0.0, trace, min_units=1, tag=TAG)
        print(run.result_line(records, prefix=len(records) > 1))
    return records, buf.getvalue()


class BenchSelfTest(unittest.TestCase):
    @classmethod
    def tearDownClass(cls):
        for path in run.WORK.glob(f"*{TAG}*"):
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()

    def test_each_workload_prints_every_metric_with_unit(self):
        for name in wl.WORKLOADS:
            with self.subTest(workload=name):
                (record,), text = run_quiet([tiny(name)])
                self.assertTrue(record["correct"], record["unit_records"])
                last = json.loads(text.strip().splitlines()[-1])
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertEqual(set(last["metrics"]), set(run.E2E))
                for metric, unit in run.E2E.items():
                    self.assertEqual(last["metrics"][metric]["unit"], unit)
                    self.assertGreater(last["metrics"][metric]["value"], 0.0)
                    self.assertIn(f"{name} {metric} ", text)
                self.assertIn(f"{name} failed_frac 0 ratio", text)

    def test_traced_run_reports_every_layer_metric(self):
        (record,), text = run_quiet([tiny("hyperbolic")], trace=True)
        last = json.loads(text.strip().splitlines()[-1])
        self.assertEqual(set(last["metrics"]), set(run.layer_units()))
        for metric, mv in last["metrics"].items():
            self.assertEqual(mv["unit"], run.layer_units()[metric])
            self.assertIn(f"hyperbolic {metric} ", text)
        timed = [m for m, u in run.layer_units().items() if u in ("s", "us", "flop", "bytes")]
        for metric in timed + ["eig.eig_dense.n3_sum", "eig.char_poly.dim_sum"]:
            self.assertGreater(last["metrics"][metric]["value"], 0, metric)
        self.assertEqual(last["metrics"]["spectra.tracks_per_row"]["value"], 2.0)
        for metric in run.REPORT_ONLY_TIMES:
            self.assertIn(f"hyperbolic {metric} ", text)

    def test_failed_run_counts_all_rows_and_harness_continues(self):
        # Known defect: k_max >= 1024 makes the doubled certificate block
        # larger than the dense-eigensolver limit, so the sweep fails.
        bad = tiny("hyperbolic")
        bad["config"]["truncation"] = {"kind": "fixed", "k_max": 1100}
        bad["config"]["gamma_grid"] = {"explicit": [1e4]}
        bad["rows"] = 1
        bad["workload"] = "hyperbolic_kmax1100"
        records, text = run_quiet([bad, tiny("sphere")])
        failed, ok = records
        self.assertFalse(failed["correct"])
        self.assertEqual(failed["failed"], failed["attempted"])
        self.assertGreaterEqual(failed["attempted"], 1)
        self.assertIn("EigensolveError", " ".join(failed["unit_records"][0]["problems"]))
        self.assertIn("hyperbolic_kmax1100 failed_frac 1 ratio", text)
        self.assertTrue(ok["correct"])
        last = json.loads(text.strip().splitlines()[-1])
        self.assertIsNone(last["metrics"]["hyperbolic_kmax1100.rows_per_s"]["value"])
        self.assertEqual(last["failed"], failed["failed"])
        self.assertFalse(last["correct"])

    def test_seeds_generate_different_recorded_inputs(self):
        for name in wl.WORKLOADS:
            with self.subTest(workload=name):
                a, b = wl.make_inputs(name, 1), wl.make_inputs(name, 2)
                self.assertNotEqual(a, b)
                self.assertEqual(a, wl.make_inputs(name, 1))
                run_dir = run.WORK / f"{name}{TAG}-inputs"
                run.write_inputs(a, run_dir)
                self.assertEqual(json.loads((run_dir / "inputs.json").read_text()), a)

    def test_default_seed_gives_canonical_inputs(self):
        sphere = wl.make_inputs("sphere", wl.DEFAULT_SEED)
        self.assertEqual(sphere["config"]["gamma_grid"], {"log_start": 0.0, "log_end": 4.0, "points": 41})
        hyp = wl.make_inputs("hyperbolic", wl.DEFAULT_SEED)
        self.assertEqual([e[0] for e in hyp["entries"]], [0.0, 2.0, 5.0, 10.0])
        scan = wl.make_inputs("radius_scan", wl.DEFAULT_SEED)
        self.assertEqual([(c["K"], c["eta"]) for c in scan["cases"]], wl._SCAN_CASES)
        self.assertEqual(scan["cases"][0]["riesz_x"], [0.0, 0.1, 0.3])

    def test_benchmark_json_matches_the_metrics_printed(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(wl.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.E2E)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.layer_units())

    def test_gate_rejects_a_wrong_row(self):
        inputs = tiny("sphere")
        (record,), _ = run_quiet([inputs])
        out = run.ROOT / record["unit_records"][0]["dir"] / "out"
        self.assertEqual(wl.gate(inputs, out)[0], 0)
        path = next(out.glob("table_01_eta_2.json"))
        table = json.loads(path.read_text())
        table["rows"][0]["re_lambda"] += 1e-8
        path.write_text(json.dumps(table))
        failed, problems = wl.gate(inputs, out)
        self.assertEqual(failed, 1)
        self.assertIn("closed-form", problems[0])


if __name__ == "__main__":
    unittest.main()
