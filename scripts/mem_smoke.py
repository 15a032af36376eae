#!/usr/bin/env python3
"""Memory-proportionality smoke: peak RSS must track the live backlog.

The open-system packet store (src/sim/packet_store.hpp) recycles a
departed packet's slab, so a steady-state run's resident memory is
proportional to the LIVE population, not to how long the run goes. A
regression that re-couples memory to the horizon (a leaked slab per
arrival, an unbounded id->anything map, departed protocol state kept
alive) is invisible to the unit tests — every counter still matches —
but shows up immediately as peak RSS growing with --horizon=.

This script runs the same bench command at a short and a long horizon
(everything else identical), measures each child's peak RSS via
os.wait4's rusage, and FAILS when the long run's peak exceeds the short
run's by more than --factor. The horizons differ by ~an order of
magnitude, so a closed-population memory model (RSS ~ arrivals ~
horizon) blows way past any reasonable factor, while the open-system
model only wobbles by allocator noise on a few-MB baseline.

Usage:
  mem_smoke.py --bench=PATH [--short=200000] [--long=2000000]
               [--factor=1.5] [--min-mb=1.0] [-- BENCH_ARGS...]

BENCH_ARGS are passed to both runs with --horizon=N appended, so they
must not set --horizon= themselves (benches reject a repeated flag).
Exit status: 0 = proportional, 1 = RSS grew
with the horizon (or a run failed), 2 = usage error.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys


def run_with_rss(cmd: list[str]) -> tuple[int, float]:
    """Runs cmd; returns (exit status, peak RSS in MiB) of the child."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = status  # keep Popen's bookkeeping honest
    # Linux reports ru_maxrss in KiB (macOS in bytes; normalize roughly).
    maxrss = rusage.ru_maxrss
    if sys.platform == "darwin":
        maxrss //= 1024
    code = os.waitstatus_to_exitcode(status)
    return code, maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fail when peak RSS grows with the run horizon",
        usage="mem_smoke.py --bench=PATH [options] [-- BENCH_ARGS...]",
    )
    parser.add_argument("--bench", required=True, help="bench binary to run")
    parser.add_argument("--short", type=int, default=200000, help="short horizon (slots)")
    parser.add_argument("--long", type=int, default=2000000, help="long horizon (slots)")
    parser.add_argument(
        "--factor",
        type=float,
        default=1.5,
        help="max allowed long/short peak-RSS ratio",
    )
    parser.add_argument(
        "--min-mb",
        type=float,
        default=1.0,
        help="floor (MiB) added to the short peak before applying --factor, "
        "so allocator noise on tiny baselines cannot flake the ratio",
    )
    args, bench_args = parser.parse_known_args()
    if bench_args and bench_args[0] == "--":
        bench_args = bench_args[1:]
    if args.short <= 0 or args.long <= args.short:
        print("mem_smoke: need 0 < --short < --long", file=sys.stderr)
        return 2
    if any(a.startswith("--horizon") for a in bench_args):
        print("mem_smoke: BENCH_ARGS must not set --horizon=", file=sys.stderr)
        return 2

    peaks = {}
    for label, horizon in (("short", args.short), ("long", args.long)):
        cmd = [args.bench, *bench_args, f"--horizon={horizon}"]
        code, rss_mb = run_with_rss(cmd)
        print(f"mem_smoke: {label} horizon={horizon} peak_rss={rss_mb:.1f} MiB")
        if code != 0:
            print(f"mem_smoke: FAIL — {' '.join(cmd)} exited {code}", file=sys.stderr)
            return 1
        peaks[label] = rss_mb

    bound = (peaks["short"] + args.min_mb) * args.factor
    ratio = peaks["long"] / peaks["short"] if peaks["short"] > 0 else float("inf")
    if peaks["long"] > bound:
        print(
            f"mem_smoke: FAIL — peak RSS grew with the horizon "
            f"({peaks['short']:.1f} -> {peaks['long']:.1f} MiB, ratio {ratio:.2f}, "
            f"bound {bound:.1f} MiB): memory is tracking arrivals, not the live backlog",
            file=sys.stderr,
        )
        return 1
    print(
        f"mem_smoke: OK — peak RSS flat across a {args.long // args.short}x horizon "
        f"({peaks['short']:.1f} -> {peaks['long']:.1f} MiB, ratio {ratio:.2f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
