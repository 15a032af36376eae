#!/usr/bin/env python3
"""Compares two benchmark records written by `run.py --record PATH`.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric's base value, new value and relative change. Records
from different hosts, builds or SIMD tiers are not comparable: the
script then names the fields that differ, prints no deltas, and exits 3.
"""

import json
import sys

# Host and build fields that must match for a delta to mean anything.
SAME = ("cpu_model", "nproc", "compiler", "build_type", "simd_tier", "LOWSENSE_SIMD")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("not comparable: workload/trace %s/%s vs %s/%s" % (
            base["workload"], base["trace"], new["workload"], new["trace"]))
        return 3
    differ = [k for k in SAME if base["host"].get(k) != new["host"].get(k)]
    if differ:
        print("not comparable: the records differ in host or build, so no delta is reported")
        for k in differ:
            print("  %s: %s vs %s" % (k, base["host"].get(k), new["host"].get(k)))
        return 3
    print("%s (trace %d): %s -> %s" % (base["workload"], base["trace"],
                                       base["host"].get("git_commit"),
                                       new["host"].get("git_commit")))
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print("  %-40s %14.6g  (missing in NEW)" % (name, b["value"]))
            continue
        change = "%+.1f%%" % (100.0 * (n["value"] / b["value"] - 1.0)) if b["value"] else "n/a"
        print("  %-40s %14.6g %14.6g %s  %s" % (name, b["value"], n["value"], b["unit"], change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
