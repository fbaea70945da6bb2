"""Self-test of the benchmark at tiny workload sizes.

    python3 bench/selftest.py

Checks that every workload reports each declared metric with its unit, in
both modes, with no failed op; and that corrupted outputs (a flipped log
digest, a wrong Monte Carlo verdict, a biased acceptance rate) are counted
as failed ops.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

workloads = bench.import_workloads()
import vouchnet  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = workloads.make_workloads(tiny=True)


def measure(name: str, trace: int = 0, seed: int | None = None) -> tuple[dict, str]:
    workload = TINY[name]
    args = argparse.Namespace(workload=name, seed=workload.default_seed if seed is None else seed,
                              seconds=0.05, trace=trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = bench.measure(workload, args, SPEC, tiny=True)
    return result, out.getvalue()


class ReportsEveryMetric(unittest.TestCase):
    def test_every_workload_and_mode(self):
        self.assertEqual(sorted(TINY), sorted(w["name"] for w in SPEC["workloads"]))
        for name in TINY:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result, text = measure(name, trace)
                    self.assertTrue(result["correct"], text)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(json.loads(text.splitlines()[-1]), result)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     declared)
                    for metric, unit in declared.items():
                        value = result["metrics"][metric]["value"]
                        self.assertIsInstance(value, (int, float))
                        self.assertIn(f"metric {metric} {value!r} {unit}\n", text)
                        if key == "end_to_end":
                            self.assertGreater(value, 0)


class CountsCorruptOutput(unittest.TestCase):
    def assert_all_failed(self, result: dict, text: str) -> None:
        self.assertFalse(result["correct"], text)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("check failed:", text)

    def test_flipped_digest(self):
        original = vouchnet.Simulation.run

        def flipped(sim):
            log, report = original(sim)
            first = "1" if report.log_digest[0] == "0" else "0"
            report.log_digest = first + report.log_digest[1:]
            return log, report

        vouchnet.Simulation.run = flipped
        try:
            for name in ("formation_n400", "campaign_sweep"):
                with self.subTest(workload=name):
                    self.assert_all_failed(*measure(name))
        finally:
            vouchnet.Simulation.run = original

    def test_wrong_verdict(self):
        original = vouchnet.decide
        calls = []

        def wrong(replies, total_polled, quorum):
            decision = original(replies, total_polled=total_polled, quorum=quorum)
            calls.append(1)
            if len(calls) == 7:
                return dataclasses.replace(decision, accepted=not decision.accepted)
            return decision

        vouchnet.decide = wrong
        try:
            result, text = measure("mc_verify")
        finally:
            vouchnet.decide = original
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], TINY["mc_verify"].trials)
        self.assertIn("verdicts differ", text)

    def test_biased_rate_fails_the_run(self):
        mc = TINY["mc_verify"]
        exact = workloads.binomial_tail(mc.k, mc.p)
        self.assertEqual(mc.finish({"trials": 100_000, "accepted": round(exact * 100_000)}), [])
        self.assertTrue(mc.finish({"trials": 100_000, "accepted": round(exact * 110_000)}))


if __name__ == "__main__":
    unittest.main()
