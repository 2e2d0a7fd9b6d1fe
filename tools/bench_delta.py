#!/usr/bin/env python3
"""Compare a fresh BENCH.json against the committed bench baseline.

Prints a Markdown table (bench name, baseline ms, current ms, delta) suitable
for a CI job summary. Benches present in only one of the two files are listed
explicitly in their own sections — a bench silently disappearing from the
smoke is itself a regression worth seeing. Warn-only by design: shared-runner
clocks are noisy, so this tool always exits 0 — the table makes regressions
visible, a human decides whether they are real. Treat deltas beyond +/-30% on
the same machine as signal, anything less as noise (matches
bench/perf_regression.cc).

Usage: bench_delta.py [--baseline bench/BENCH_baseline.json] [--current BENCH.json]
"""

import argparse
import json
import sys

WARN_RATIO = 1.30  # flag rows whose wall time moved by more than this factor

# Benches the perf smoke is expected to produce. The table itself is a union
# of whatever the two JSON files contain, but a bench absent from BOTH files
# (e.g. perf_regression.cc lost a block in a refactor) would otherwise vanish
# without a trace — this list makes that failure mode visible too.
EXPECTED_BENCHES = (
    "thread_pool_fork_join",
    "reference_gemm",
    "spinfer_functional",
    "tca_bme_encode",
    "smbd_decode",
    "cpu_spmm_n8",
    "cpu_spmm_n64",
    "cpu_spmm_n64_t2",
    "cpu_spmm_n64_t4",
    "cpu_spmv",
    "cpu_spmv_portable",
    "cpu_spmv_int8",
    "tiny_transformer_decode_step",
    "paged_attention_ctx256",
    "paged_attention_ctx2048",
    "paged_attention_ctx2048_ref",
    "paged_attention_chunk128",
    "serving_decode_b1",
    "serving_decode_b4",
    "serving_decode_b8",
    "serving_decode_b8_longctx",
    "serving_prefix_cache",
    "serving_chunked_prefill",
    "serving_engine_b8",
    "serving_obs_overhead",
    "serving_tp2",
    "serving_tp4",
    "serving_disagg",
)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_delta: cannot read {path}: {err}", file=sys.stderr)
        return None


def _wall_ms(record):
    ms = record.get("wall_ms") if isinstance(record, dict) else None
    return ms if isinstance(ms, (int, float)) and not isinstance(ms, bool) else None


def render(baseline, current):
    """Returns the full report as a list of Markdown lines."""
    lines = [
        "### Perf smoke vs committed baseline",
        "",
        "Warn-only: shared-runner clocks are noisy; ±30% is the signal bar.",
        "",
        "| bench | baseline ms | current ms | delta |",
        "|---|---:|---:|---:|",
    ]
    one_sided = []  # (name, "baseline only" | "current only", ms or None)
    for name in sorted(set(baseline) | set(current)):
        base = _wall_ms(baseline.get(name, {}))
        cur = _wall_ms(current.get(name, {}))
        if base is None or cur is None:
            side = "current only" if base is None else "baseline only"
            one_sided.append((name, side, cur if base is None else base))
            continue
        if base <= 0.0:
            lines.append(f"| {name} | {base:.3f} | {cur:.3f} | n/a |")
            continue
        ratio = cur / base
        flag = " ⚠️" if ratio > WARN_RATIO or ratio < 1.0 / WARN_RATIO else ""
        lines.append(f"| {name} | {base:.3f} | {cur:.3f} | {ratio - 1.0:+.1%}{flag} |")

    if one_sided:
        lines += ["", "Present in only one file (new bench, removed bench, or "
                      "a record missing its wall_ms):", ""]
        for name, side, ms in one_sided:
            shown = "?" if ms is None else f"{ms:.3f} ms"
            lines.append(f"- `{name}`: {side} ({shown})")

    missing = [n for n in EXPECTED_BENCHES if n not in baseline and n not in current]
    if missing:
        lines += ["", "Expected benches missing from BOTH files (did "
                      "perf_regression lose a block?):", ""]
        for name in missing:
            lines.append(f"- `{name}`")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="bench/BENCH_baseline.json")
    parser.add_argument("--current", default="BENCH.json")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    if baseline is None or current is None:
        print("bench_delta: nothing to compare (missing or unreadable input)")
        return 0

    print("\n".join(render(baseline, current)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
