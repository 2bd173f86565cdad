#!/usr/bin/env python3
"""Compare a fresh micro_simulator_throughput run against the
committed baseline (BENCH_throughput.json) and fail on regressions.

Three classes of check, with very different tolerances:

* Simulated-work identity (cycles, serial_cycles, pairs): zero
  tolerance. These are properties of the simulator, not the host —
  any drift means the workload or the cycle-accurate model changed,
  which is a correctness regression masquerading as a perf delta
  (fast-forward and the retire-only slim path are required to be
  bit-identical to the cycle-by-cycle loop).

* Host-relative throughput (serial_mcycles_per_sec): wide tolerance,
  default 50%. The committed baseline was measured on one machine;
  CI runners differ in clock, cache and contention, so a tight band
  would only measure the runner. The band is chosen to catch
  structural regressions — accidentally disabling fast-forward, LTO
  or the memoized cache walks each cost well over 2x — while staying
  deaf to runner variance.

* Tracing overhead (trace_overhead_pct, multicore_trace_overhead_pct):
  absolute budget, default 2%. These are A/Bs measured within the
  same process on the same host, so they are machine-independent;
  negative values (noise) pass. Each is the median traced/untraced
  ratio over 10 pairs of at least 1 s per side, the sides of a pair
  alternating run by run, so a host slowdown lands on both sides and
  one that still skews a few pairs cannot fail the gate alone.

Multicore fields were added after the first baselines were
committed; when the baseline lacks them, those checks are skipped so
old baselines keep validating new builds.

Usage: check_throughput.py BASELINE CURRENT [--tolerance FRAC]
                                            [--trace-budget PCT]
"""

import argparse
import json
import sys


def load_summary(path):
    """Last JSON line of the file (the bench prints one per run)."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        raise SystemExit(f"{path}: empty")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.50,
                        help="max fractional serial-throughput drop "
                             "vs baseline (default 0.50)")
    parser.add_argument("--trace-budget", type=float, default=2.0,
                        help="max disabled-tracer overhead in "
                             "percent (default 2.0)")
    args = parser.parse_args()

    base = load_summary(args.baseline)
    cur = load_summary(args.current)
    failures = []

    exact_keys = ["pairs", "scale", "cycles", "serial_cycles"]
    if "multicore_cycles" in base and "multicore_cycles" in cur:
        exact_keys.append("multicore_cycles")
    for key in exact_keys:
        if base[key] != cur[key]:
            failures.append(
                f"{key}: {cur[key]} != baseline {base[key]} "
                "(simulated work must be bit-identical)")

    throughput_keys = ["serial_mcycles_per_sec"]
    if ("multicore_mcycles_per_sec" in base
            and "multicore_mcycles_per_sec" in cur):
        throughput_keys.append("multicore_mcycles_per_sec")
    for key in throughput_keys:
        floor = base[key] * (1.0 - args.tolerance)
        if cur[key] < floor:
            failures.append(
                f"{key}: {cur[key]:.2f} below floor {floor:.2f} "
                f"(baseline {base[key]:.2f}, tolerance "
                f"{args.tolerance:.0%})")

    trace_keys = ["trace_overhead_pct"]
    if "multicore_trace_overhead_pct" in cur:
        trace_keys.append("multicore_trace_overhead_pct")
    for key in trace_keys:
        if cur[key] > args.trace_budget:
            failures.append(
                f"{key}: {cur[key]:.2f} exceeds the "
                f"{args.trace_budget:.1f}% budget")

    print(f"{'metric':<28}{'baseline':>14}{'current':>14}")
    for key in ("cycles", "serial_cycles", "mcycles_per_sec",
                "serial_mcycles_per_sec", "trace_overhead_pct",
                "multicore_cycles", "multicore_mcycles_per_sec",
                "multicore_trace_overhead_pct",
                "host_cpus"):
        print(f"{key:<28}{base.get(key, '-'):>14}"
              f"{cur.get(key, '-'):>14}")

    if failures:
        print("\nFAIL", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nOK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
