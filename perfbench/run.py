#!/usr/bin/env python3
"""The lowsense benchmark: one workload, one seed, one JSON verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record PATH]

Run from the root of a lowsense source tree. The first call builds the
library and the driver from source (CMake, Release) into
.bench_build/perfbench; later calls reuse that build.

--trace 0 measures the end-to-end metrics untraced: ns and CPU ns per
channel access (median over reps), peak RSS of one run of the workload, set-up
time (median over 101 fresh processes) and the share of runs whose
correctness checks passed. --trace 1 runs the decorator self-test, then
the traced driver, and reports the per-layer profile.

Every metric is printed by name with its unit, then the host and build
record, and the last line of stdout is the JSON verdict
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every check passed. --record writes the full record (host, build,
samples, metrics) for perfbench/compare.py.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SELFTEST = os.path.join(BUILD, "perfbench_transparency_test")
WORKLOADS = ("batch-drain", "jammed-stream", "golden-packs")
DEFAULT_SEED = 1          # the seed expected.json pins (perfbench/src/workloads.hpp)
SETUP_PROCESSES = 100     # fresh processes timed for setup_s, besides the measured one
CHILD_TIMEOUT_S = 170     # one child may never outlive the 180 s run limit


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally (a no-op when fresh)."""
    for need in ("CMakeLists.txt", "src", "packs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no lowsense source tree here (missing %s)" % need)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def run_child(cmd):
    """Runs cmd to completion; returns (exit code, stdout)."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    return r.returncode, r.stdout


def driver(args, mode, seconds):
    cmd = [DRIVER, "--workload=" + args.workload, "--seed=%d" % args.seed, "--mode=" + mode,
           "--seconds=%g" % seconds, "--packs=" + os.path.join(ROOT, "packs")]
    code, out = run_child(cmd)
    lines = out.strip().splitlines()
    if not lines:
        fail("driver printed nothing (exit %d): %s" % (code, " ".join(cmd)))
    return code, json.loads(lines[-1])


def percentile_line(values):
    """Median plus the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    xs = sorted(values)
    text = "median %.6g" % statistics.median(xs)
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            text += ", p%g %.6g" % (p, xs[min(n - 1, int(n * p / 100))])
            break
    return text + " (n=%d)" % n


def pin_mismatches(workload, seed, result, digests):
    """Differences from expected.json; pins hold only at the default seed."""
    if seed != DEFAULT_SEED:
        return []
    with open(os.path.join(HERE, "expected.json")) as f:
        pins = json.load(f)["workloads"][workload]
    bad = ["%s: got %s, pinned %s" % (k, result.get(k), v)
           for k, v in pins["result"].items() if result.get(k) != v]
    bad += ["digest %s: got %s, pinned %s" % (k, digests[k], v)
            for k, v in pins["digests"].items() if k in digests and digests[k] != v]
    return bad


def host_record(args, setup_info):
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "compiler": setup_info["compiler"],
        "build_type": setup_info["build_type"],
        "git_commit": commit,
        "seed": args.seed,
        "simd_tier": setup_info["simd_tier"],
        "LOWSENSE_SIMD": os.environ.get("LOWSENSE_SIMD", "unset"),
    }


def measure(args):
    setup_ns = []
    setup_info = None
    for _ in range(SETUP_PROCESSES):
        code, d = driver(args, "setup", args.seconds)
        if code != 0:
            fail("setup run failed")
        setup_ns.append(d["setup_ns"])
        setup_info = d
    code, d = driver(args, "measure", args.seconds)
    setup_ns.append(d["setup_ns"])
    reps = d["reps"]
    wall = [r["wall_ns"] / r["accesses"] for r in reps]
    cpu = [r["cpu_ns"] / r["accesses"] for r in reps]
    setup_s = [x / 1e9 for x in setup_ns]
    return code, d, setup_info, {
        "ns_per_access": (statistics.median(wall), "ns", wall),
        "cpu_ns_per_access": (statistics.median(cpu), "ns", cpu),
        # After the first rep: one run of the workload in a fresh process.
        "peak_rss_mib": (reps[0]["peak_rss_kib"] / 1024.0, "MiB", None),
        "setup_s": (statistics.median(setup_s), "s", setup_s),
    }


def trace(args):
    code, setup_info = driver(args, "setup", args.seconds)
    if code != 0:
        fail("setup run failed")
    st_code, st_out = run_child([SELFTEST])
    selftest_ok = st_code == 0
    print(st_out.strip().splitlines()[-1] if st_out.strip() else "decorator self-test: no output")
    code, d = driver(args, "trace", args.seconds)
    if not selftest_ok:
        d["attempted"] += 1
        d["failed"] += 1
        d["failures"].append("decorator transparency self-test failed")
    metrics = {k: (v["value"], v["unit"], None) for k, v in d["layers"].items()}
    return code, d, setup_info, metrics


def unresolved_notes(d):
    """Per-layer metrics whose calls cost less than the timer around them."""
    return {name: "UNRESOLVED: below the timer's cost (raw %.3g ns, timer %.3g ns)" % (
        raw, d["timer_ns"]) for name, raw in d.get("unresolved", {}).items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="also write the full record (JSON) to this path")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    t0 = time.time()
    build()
    code, d, setup_info, metrics = (trace if args.trace else measure)(args)
    notes = unresolved_notes(d) if args.trace else {}
    mismatches = pin_mismatches(args.workload, args.seed, d["result"], d["digests"])
    attempted = d["attempted"]
    failed = min(attempted, d["failed"] + len(mismatches))
    failures = d["failures"] + ["pin " + m for m in mismatches]
    if not args.trace:
        fail_rate = failed / attempted
        metrics["pass_rate"] = (1.0 - fail_rate, "ratio", None)
    correct = code == 0 and failed == 0

    print("workload %s, seed %d, %s, %.1f s" % (
        args.workload, args.seed, "traced" if args.trace else "untraced", time.time() - t0))
    for name, (value, unit, samples) in metrics.items():
        extra = "  [%s]" % percentile_line(samples) if samples else ""
        if name in notes:
            extra += "  " + notes[name]
        print("  %-40s %14.6g %s%s" % (name, value, unit, extra))
    if not args.trace:
        print("  %-40s %14.6g ratio  [failed %d of %d runs]" % ("fail_rate", fail_rate, failed,
                                                                attempted))
    host = host_record(args, setup_info)
    print("  host: " + ", ".join("%s=%s" % kv for kv in host.items()))
    for f in failures:
        print("  FAILED " + f)

    if args.record:
        with open(args.record, "w") as f:
            json.dump({"schema": "lowsense-perfbench/v1", "workload": args.workload,
                       "trace": args.trace, "host": host, "result": d["result"],
                       "failures": failures, "timer_ns": d.get("timer_ns"),
                       "unresolved": d.get("unresolved", {}),
                       "metrics": {k: {"value": v, "unit": u, "samples": s}
                                   for k, (v, u, s) in metrics.items()}}, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
