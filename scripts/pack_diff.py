#!/usr/bin/env python3
"""Diff scenario-pack manifests (lowsense-pack/v1 JSONL) and flag drift.

A pack manifest holds one line per scenario with the run's trace digest
and its engine-invariant metrics. Regenerating a manifest with the same
code MUST be byte-identical for either engine, so —
unlike bench_diff.py's tolerance-laden perf gate — this diff is exact:
ANY difference is drift and fails.

Usage:
  pack_diff.py GOLDEN CANDIDATE

GOLDEN and CANDIDATE are manifest files or directories; directories are
paired by file name (*.manifest.jsonl). Exit status: 0 = identical,
1 = drift (missing scenarios, digest changes, metric changes),
2 = usage/parse error.

The line-level report names the scenario and the fields that moved, so a
digest drift (behavior change) is distinguishable at a glance from a
schema/metric edit.
"""

import json
import os
import sys


def fail_usage(msg):
    sys.stderr.write("pack_diff.py: %s\n" % msg)
    sys.stderr.write(__doc__)
    return 2


def load_manifest(path):
    """Returns {scenario: (raw_line, parsed_dict)} preserving raw text."""
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError("%s:%d: bad JSON: %s" % (path, lineno, e))
            if doc.get("schema") != "lowsense-pack/v1":
                raise ValueError(
                    "%s:%d: unexpected schema %r" % (path, lineno, doc.get("schema"))
                )
            name = doc.get("scenario")
            if not name:
                raise ValueError("%s:%d: line has no scenario name" % (path, lineno))
            if name in out:
                raise ValueError("%s:%d: duplicate scenario %r" % (path, lineno, name))
            out[name] = (line, doc)
    return out


def flatten(doc, prefix=""):
    """dict -> {dotted.key: value} for field-level drift reporting."""
    flat = {}
    for key, val in doc.items():
        full = prefix + key
        if isinstance(val, dict):
            flat.update(flatten(val, full + "."))
        else:
            flat[full] = val
    return flat


def diff_manifests(golden_path, candidate_path, label):
    golden = load_manifest(golden_path)
    cand = load_manifest(candidate_path)
    drift = []

    for name in golden:
        if name not in cand:
            drift.append("%s: scenario %r missing from candidate" % (label, name))
    for name in cand:
        if name not in golden:
            drift.append("%s: scenario %r not in golden manifest" % (label, name))

    for name in sorted(set(golden) & set(cand)):
        g_line, g_doc = golden[name]
        c_line, c_doc = cand[name]
        if g_line == c_line:
            continue
        g_flat, c_flat = flatten(g_doc), flatten(c_doc)
        fields = []
        for key in sorted(set(g_flat) | set(c_flat)):
            g_v = g_flat.get(key, "<absent>")
            c_v = c_flat.get(key, "<absent>")
            if g_v != c_v:
                fields.append("%s: %r -> %r" % (key, g_v, c_v))
        if not fields:
            # Same parsed content, different bytes (key order, number
            # formatting): still drift — manifests are diffed as text.
            fields = ["formatting changed (lines differ, values equal)"]
        drift.append("%s: scenario %r drifted:\n    %s" % (label, name, "\n    ".join(fields)))
    return drift


def pair_dirs(golden_dir, candidate_dir):
    names = sorted(
        n for n in os.listdir(golden_dir) if n.endswith(".manifest.jsonl")
    )
    if not names:
        raise ValueError("no *.manifest.jsonl files in %s" % golden_dir)
    pairs = []
    for n in names:
        cand = os.path.join(candidate_dir, n)
        if not os.path.isfile(cand):
            raise ValueError("candidate manifest missing: %s" % cand)
        pairs.append((os.path.join(golden_dir, n), cand, n))
    return pairs


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("-")]
    extra = [a for a in argv[1:] if a.startswith("-")]
    if extra:
        return fail_usage("unknown option(s): %s" % " ".join(extra))
    if len(args) != 2:
        return fail_usage("expected GOLDEN and CANDIDATE")
    golden, candidate = args

    try:
        if os.path.isdir(golden) != os.path.isdir(candidate):
            return fail_usage("GOLDEN and CANDIDATE must both be files or both dirs")
        if os.path.isdir(golden):
            pairs = pair_dirs(golden, candidate)
        else:
            pairs = [(golden, candidate, os.path.basename(golden))]
        drift = []
        for g, c, label in pairs:
            drift.extend(diff_manifests(g, c, label))
    except (OSError, ValueError) as e:
        sys.stderr.write("pack_diff.py: %s\n" % e)
        return 2

    if drift:
        for d in drift:
            print(d)
        print("pack_diff: DRIFT in %d place(s)" % len(drift))
        return 1
    print("pack_diff: OK (%d manifest(s) identical)" % len(pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
