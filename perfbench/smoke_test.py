"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

It shrinks the workloads' op lists by patching their size tables, then
checks that every workload runs and reports exactly the metrics that
BENCHMARK.json declares, that the exact-output gate trips when a pinned
expected value is perturbed, and that a run without the library exits
non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PANEL = workloads.LP_PANEL
#: One weak and one strict n=4 pair of the panel; the strict one is infeasible.
TINY_PANEL = (PANEL[0], PANEL[12])


def tiny(workload: str, trace: int = 0, pinned=None) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(
            workloads.LP_SIZES, {"weak_n4": 2, "strict_n4": 1, "weak_n5": 1}))
        stack.enter_context(mock.patch.dict(
            workloads.PINNED, {"lp_panel": TINY_PANEL, **(pinned or {})}))
        stack.enter_context(mock.patch.object(
            workloads, "VERIFY_CHECKS", ("thm1", "thm5", "counts")))
        stack.enter_context(contextlib.redirect_stdout(out))
        code = run.main([
            "--workload", workload, "--seed", "7", "--seconds", "0.05",
            "--trace", str(trace),
        ])
    return code, out.getvalue()


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_the_declared_metrics(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.BUILDERS))
        for workload in sorted(workloads.BUILDERS):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, stdout = tiny(workload, trace)
                    report = result(stdout)
                    self.assertEqual(code, 0, stdout)
                    self.assertTrue(report["correct"])
                    self.assertEqual(report["failed"], 0)
                    self.assertGreaterEqual(report["attempted"], 1)
                    metrics = report["metrics"]
                    self.assertEqual(
                        [(m["name"], m["unit"]) for m in SPEC[key]],
                        [(name, metrics[name]["unit"]) for name in metrics],
                    )

    def test_gate_trips_on_a_perturbed_expected_value(self):
        def panel_value(entry, value):
            return {"lp_panel": tuple(e if e != entry else entry[:4] + (value,) for e in TINY_PANEL)}

        perturbed = {
            "n=3 best": ("lp-scan", {"lp_n3_best": Fraction(4)}),
            "weak panel value": ("lp-scan", panel_value(TINY_PANEL[0], Fraction(1, 100))),
            "strict panel infeasible": ("lp-scan", panel_value(TINY_PANEL[1], Fraction(0))),
            "verify failed": ("verify-paper", {"verify_failed": 1}),
        }
        for label, (workload, pinned) in perturbed.items():
            with self.subTest(label):
                code, stdout = tiny(workload, pinned=pinned)
                report = result(stdout)
                self.assertEqual(code, 1)
                self.assertFalse(report["correct"])
                self.assertGreater(report["failed"], 0)
                self.assertIn("# FAIL", stdout)

    def test_missing_library_exits_without_a_result(self):
        with mock.patch.object(run, "ROOT", Path(run.ROOT / "perfbench" / "no-such-checkout")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "lp-scan", "--seed", "1", "--seconds", "1"])
        self.assertEqual(code, 2)
        self.assertEqual(out.getvalue(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
