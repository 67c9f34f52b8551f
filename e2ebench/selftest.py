#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 e2ebench/selftest.py              # everything (builds first)
    python3 e2ebench/selftest.py Synthetic    # reduction rules only

Synthetic checks the percentile rule and the failure counting on made-up
inputs.  EndToEnd runs the real benchmark from the checkout root: a
deliberately wrong reference must fail cells, and a seed never used
while the benchmark was written must pass every check on every workload.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
import metrics  # noqa: E402  (after the bytecode switch)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HELD_OUT_SEED = 424242


def cell(name, kind="sim", wall=1.0, failed=0, passed=1):
    checks = [{"name": "c%d" % i, "ok": True} for i in range(passed)]
    checks += [{"name": "f%d" % i, "ok": False, "detail": "x"}
               for i in range(failed)]
    return {"name": name, "kind": kind, "wall_s": wall, "checks": checks}


class Synthetic(unittest.TestCase):
    def test_tail_has_exactly_ten_samples_beyond(self):
        values = [float(v) for v in range(50, 0, -1)]
        value, pct, n = metrics.tail_percentile(values)
        self.assertEqual((value, pct, n), (40.0, 80.0, 50))
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_tail_percentile_rises_with_sample_count(self):
        _, pct24, _ = metrics.tail_percentile(range(24))
        _, pct200, _ = metrics.tail_percentile(range(200))
        self.assertAlmostEqual(pct24, 100.0 * 14 / 24)
        self.assertEqual(pct200, 95.0)

    def test_tail_of_fewer_than_eleven_is_the_maximum(self):
        self.assertEqual(metrics.tail_percentile([3.0, 9.0, 1.0]),
                         (9.0, 100.0, 3))
        self.assertEqual(metrics.tail_percentile([]), (0.0, 0.0, 0))

    def test_failed_counts_cells_not_checks(self):
        passes = [{"cells": [cell("a"), cell("b", failed=2),
                             cell("c", kind="check", failed=1)]},
                  {"cells": [cell("a"), cell("b")]}]
        self.assertEqual(metrics.count_failures(passes), (5, 2))

    def test_campaign_is_normalised_per_run(self):
        nominal = metrics.PROBE_NOMINAL_S
        doc = {
            "setup_s": [0.1],
            "peak_rss_mb": 1.0,
            "passes": [
                {"traced": False, "wall_s": 5.0,
                 "probes_s": [2 * nominal, 2 * nominal, 2 * nominal],
                 "cells": [cell("a", kind="campaign", wall=1.0)]},
                {"traced": False, "wall_s": 4.0,
                 "probes_s": [2 * nominal, 4 * nominal],
                 "cells": [cell("a", kind="campaign", wall=2.0)]},
            ],
        }
        # The run's median probe is 2 * nominal: every time halves, and
        # the wall time is the fastest whole pass.
        values, _ = metrics.end_to_end(doc)
        self.assertEqual(values["wall_s"], 2.0)
        self.assertEqual(values["cell_p50_s"], 0.5)
        self.assertEqual(values["setup_s"], 0.1)

    def test_single_threaded_cells_are_normalised_per_pass(self):
        slow = 2 * metrics.PROBE_NOMINAL_S
        doc = {
            "setup_s": [0.4],
            "setup_probe_s": [slow],
            "peak_rss_mb": 1.0,
            "passes": [
                {"traced": False, "wall_s": 6.0, "probes_s": [slow],
                 "cells": [cell("a", wall=6.0)]},
                {"traced": False, "wall_s": 4.0,
                 "probes_s": [metrics.PROBE_NOMINAL_S],
                 "cells": [cell("a", wall=4.0)]},
            ],
        }
        # The slow pass normalises to 3.0 and is the fastest.
        values, _ = metrics.end_to_end(doc)
        self.assertEqual(values["wall_s"], 3.0)
        self.assertEqual(values["setup_s"], 0.2)

    def test_no_checks_is_not_a_failure(self):
        passes = [{"cells": [cell("a", passed=0)]}]
        self.assertEqual(metrics.count_failures(passes), (1, 0))

    def test_end_to_end_reduces_untraced_passes_only(self):
        doc = {
            "setup_s": [0.3, 0.1, 0.2],
            "peak_rss_mb": 12.0,
            "passes": [
                {"traced": False, "wall_s": 2.0, "values": {},
                 "cells": [cell("a", wall=1.0), cell("b", wall=3.0),
                           cell("x", kind="check", wall=0.0)]},
                {"traced": False, "wall_s": 4.0, "values": {},
                 "cells": [cell("a", wall=2.0), cell("b", wall=5.0)]},
                {"traced": True, "wall_s": 100.0, "values": {},
                 "cells": [cell("a", wall=99.0), cell("b", wall=99.0)]},
            ],
        }
        values, _ = metrics.end_to_end(doc)
        # Each cell's fastest untraced pass: a = 1.0, b = 3.0; the
        # cells run back to back, so the wall time is their sum.
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["wall_s"], 4.0)
        self.assertEqual(values["cell_p50_s"], 2.0)
        self.assertEqual(values["cell_tail_s"], 3.0)
        self.assertEqual(values["peak_rss_mb"], 12.0)


def run_bench(workload, seed, seconds, references=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if references:
        cmd += ["--references", references]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise AssertionError("run.py failed:\n" + out.stderr[-4000:])
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


class EndToEnd(unittest.TestCase):
    def test_wrong_reference_fails_cells(self):
        with open(os.path.join(BENCH_DIR, "references.json")) as f:
            refs = json.load(f)
        wrong = next(c for c in refs["cells"] if c["stable"])
        wrong["normalized_delay"] *= 1.01
        path = os.path.join(ROOT, ".bench_build", "selftest_refs.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(refs, f)
        try:
            result, stdout = run_bench("exact_chains", 1, 1, path)
        finally:
            os.remove(path)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("matches_reference", stdout)

    def test_held_out_seed_passes_every_check(self):
        for workload in ("sim_paper16", "sim_large", "exact_chains",
                         "campaign_mixed"):
            with self.subTest(workload=workload):
                result, stdout = run_bench(workload, HELD_OUT_SEED, 1)
                self.assertTrue(result["correct"], stdout)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
