#!/usr/bin/env python3
"""Self-test for bench_delta.py (stdlib-only; run directly or via CTest)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_delta


def rec(ms):
    return {"wall_ms": ms, "repetitions": 5, "threads": 1}


class RenderTest(unittest.TestCase):
    def test_common_bench_shows_delta(self):
        out = "\n".join(bench_delta.render({"a": rec(10.0)}, {"a": rec(11.0)}))
        self.assertIn("| a | 10.000 | 11.000 | +10.0% |", out)
        self.assertNotIn("⚠️", out)

    def test_large_move_is_flagged_both_directions(self):
        out = "\n".join(bench_delta.render(
            {"slow": rec(10.0), "fast": rec(10.0)},
            {"slow": rec(14.0), "fast": rec(7.0)}))
        self.assertIn("| slow | 10.000 | 14.000 | +40.0% ⚠️ |", out)
        self.assertIn("| fast | 10.000 | 7.000 | -30.0% ⚠️ |", out)

    def test_one_sided_benches_are_listed_explicitly(self):
        out = "\n".join(bench_delta.render(
            {"removed": rec(3.0), "kept": rec(1.0)},
            {"added": rec(4.0), "kept": rec(1.0)}))
        self.assertIn("- `removed`: baseline only (3.000 ms)", out)
        self.assertIn("- `added`: current only (4.000 ms)", out)
        # One-sided rows must not appear in (or vanish from) the delta table.
        self.assertNotIn("| removed |", out)
        self.assertNotIn("| added |", out)
        self.assertIn("| kept |", out)

    def test_record_missing_wall_ms_counts_as_one_sided(self):
        out = "\n".join(bench_delta.render(
            {"broken": {"repetitions": 5}}, {"broken": rec(2.0)}))
        self.assertIn("- `broken`: current only (2.000 ms)", out)

    def test_zero_baseline_renders_na(self):
        out = "\n".join(bench_delta.render({"z": rec(0.0)}, {"z": rec(1.0)}))
        self.assertIn("| z | 0.000 | 1.000 | n/a |", out)

    def test_empty_inputs_report_every_expected_bench_missing(self):
        lines = bench_delta.render({}, {})
        out = "\n".join(lines)
        self.assertTrue(any(line.startswith("### ") for line in lines))
        self.assertIn("missing from BOTH files", out)
        for name in bench_delta.EXPECTED_BENCHES:
            self.assertIn(f"- `{name}`", out)

    def test_expected_list_covers_spmv_family(self):
        # The batch-1 decode fast path must stay in the perf smoke; losing
        # these records would hide a routing regression.
        for name in ("cpu_spmv", "cpu_spmv_portable"):
            self.assertIn(name, bench_delta.EXPECTED_BENCHES)

    def test_expected_bench_in_either_file_is_not_reported_missing(self):
        base = {n: rec(1.0) for n in bench_delta.EXPECTED_BENCHES
                if n != "cpu_spmm_n8_avx2"}
        cur = dict(base)
        cur["cpu_spmm_n8_avx2"] = rec(2.0)  # present on one side only
        out = "\n".join(bench_delta.render(base, cur))
        self.assertNotIn("missing from BOTH files", out)
        self.assertIn("- `cpu_spmm_n8_avx2`: current only (2.000 ms)", out)


if __name__ == "__main__":
    unittest.main()
