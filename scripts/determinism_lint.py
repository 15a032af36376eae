#!/usr/bin/env python3
"""Determinism lint: machine-checks the (scenario, seed) purity contract.

The repo's headline guarantee is that every result is a pure function of
(scenario, seed) — independent of threads, engine choice, slab
placement, and storage reclamation. The output-diff tests enforce that
end to end; this lint enforces the MECHANISMS at the source level by
banning the constructs that historically smuggle nondeterminism into
observable paths:

  unordered-container        std::unordered_{map,set,...}: iteration order
                             is hash-seed/address dependent, so any loop
                             over one can reorder observable effects.
  raw-rand                   rand()/std::random_device/std::mt19937/...:
                             randomness that does not flow from core/rng
                             (Rng / CounterRng) cannot be replayed from a
                             master seed. core/rng itself is exempt.
  wall-clock                 system_clock / time() / gettimeofday / ...:
                             wall time in a simulation path makes results
                             depend on when the run happened. (Monotonic
                             steady_clock is allowed: it is used for
                             wall-time REPORTING and spin deadlines,
                             which are not observable results.)
  thread-id                  this_thread::get_id()/pthread_self(): logic
                             keyed on worker identity varies run to run.
  pointer-order              hashing/ordering on pointer values
                             (std::hash<T*>, reinterpret_cast to
                             [u]intptr_t, std::less<T*>): addresses vary
                             per run (ASLR, allocator), so any order they
                             induce is nondeterministic.
  raw-simd                   intrinsic headers (<immintrin.h>,
                             <arm_neon.h>, ...) or _mm*/NEON intrinsic
                             calls anywhere in src/: vector code is where
                             FP contraction and lane-order bugs silently
                             fork results across hosts. The coin loops
                             are scalar; no file is exempt.
  stream-rng-in-send-phase   stream-based Rng draws inside SimCore's
                             phase-1 send-draw section: a send decision
                             must be pure in (packet, slot), so both
                             walks of time (and any batch evaluation
                             order) draw the same coin; only slot-keyed
                             CounterRng coins (pure in (key, slot)) are
                             legal. A stream draw's VALUE depends on how
                             many draws preceded it, i.e. on call order.
                             (Per-packet gap streams in phase 3 are fine:
                             each packet owns its stream.)

Escape hatches, both justified in place:
  * inline:    `// lint: allow(<rule-id>)` on the offending line or the
               line directly above it;
  * allowlist: `path:rule-id[:justification]` lines in the file passed
               via --allowlist (paths relative to --root, '#' comments).

Usage:
  determinism_lint.py --root=REPO [--allowlist=FILE] PATH [PATH...]
      Lint every .cpp/.hpp under the given paths (relative to --root).
      Exits 1 if any unsuppressed finding remains.
  determinism_lint.py --self-test=FIXTURE_DIR
      Run the rule fixtures (tests/data/lint_fixtures): each fixture
      declares `// expect-lint: <rule>` / `// expect-clean` /
      `// expect-lint-without-allowlist: <rule>` headers, and the
      directory's allowlist.txt exercises the allowlist path. Exits 1 if
      any rule fails to fire where expected, fires where not, or an
      escape hatch fails to suppress.
"""

import argparse
import os
import re
import sys

EXTENSIONS = (".cpp", ".hpp", ".h", ".cc")

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")


class Rule:
    def __init__(self, rule_id, pattern, message, exempt_paths=()):
        self.id = rule_id
        self.pattern = re.compile(pattern)
        self.message = message
        self.exempt_paths = exempt_paths


RULES = [
    Rule(
        "unordered-container",
        r"\bstd::unordered_(?:map|set|multimap|multiset)\b",
        "unordered containers iterate in hash/address order; use std::map or "
        "vector+sort so observable effects have a canonical order",
    ),
    Rule(
        "raw-rand",
        r"\b(?:std::)?(?:srand|random_device|mt19937(?:_64)?|minstd_rand0?|"
        r"default_random_engine|ranlux(?:24|48)(?:_base)?|knuth_b)\b"
        r"|(?<![\w:])rand\s*\(",
        "randomness must flow from core/rng (Rng streams / CounterRng coins) "
        "so whole runs replay from one master seed",
        exempt_paths=("src/core/rng.hpp", "src/core/rng.cpp"),
    ),
    Rule(
        "wall-clock",
        r"\bsystem_clock\b|\bgettimeofday\b|\bclock_gettime\b|\blocaltime\b"
        r"|\bgmtime\b|\bstrftime\b|(?<![\w:])time\s*\(|(?<![\w:])clock\s*\(",
        "wall-clock time in a simulation path makes results depend on when "
        "the run happened; slots are the only clock (steady_clock is fine "
        "for non-observable timing)",
    ),
    Rule(
        "thread-id",
        r"\bthis_thread::get_id\b|\bpthread_self\b|(?<![\w:])gettid\s*\(",
        "logic keyed on worker identity varies run to run; key on logical "
        "packet ids instead",
    ),
    Rule(
        "pointer-order",
        r"\bstd::hash<[^<>]*\*\s*>|\bstd::less<[^<>]*\*\s*>"
        r"|\breinterpret_cast<\s*(?:std::)?u?intptr_t\b",
        "pointer values vary per run (ASLR, allocator); ordering or hashing "
        "on addresses breaks replay — order by logical id",
    ),
    Rule(
        "raw-simd",
        # Intrinsic headers, x86 _mm/_mm256/_mm512 calls, and NEON-style
        # v<op>_<type-suffix> calls. The header match is the backstop: no
        # intrinsic compiles without one.
        r'[<"][A-Za-z0-9_]*intrin\.h[>"]|[<"]arm_(?:neon|sve|acle)\.h[>"]'
        r"|\b_mm(?:256|512)?_[a-z0-9_]+\s*\("
        r"|\bv[a-z][a-z0-9_]*_[spuf](?:8|16|32|64)\s*\(",
        "raw SIMD intrinsics are where FP contraction and lane-order bugs "
        "fork results across hosts; the coin loops in src/core/rng.cpp are "
        "scalar on purpose (vector tiers measured no end-to-end gain)",
    ),
]

# The scoped rule: stream-based Rng use inside phase-1 send draws.
SEND_PHASE_OPEN = re.compile(r"\bphase_send_draws\s*\(")
SEND_PHASE_BAD = re.compile(r"\bRng\b|\brng\b")
SEND_PHASE_RULE_ID = "stream-rng-in-send-phase"
SEND_PHASE_MESSAGE = (
    "phase-1 send draws must be pure in (packet, slot): only slot-keyed "
    "CounterRng coins are legal there (a stream Rng draw's value depends "
    "on call order)"
)


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving layout.

    Every replaced character becomes a space so that line and column
    numbers in findings still point at the real source. Handles //, /**/,
    "..." (with escapes), '...', and raw string literals R"delim(...)delim".
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            span = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in span))
            i = j + 2
        elif c == "R" and nxt == '"':
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n - len(close) if j == -1 else j
            span = text[i : j + len(close)]
            out.append("".join(ch if ch == "\n" else " " for ch in span))
            i = j + len(close)
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            span = text[i : j + 1]
            out.append("".join(ch if ch == "\n" else " " for ch in span))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def inline_allows(raw_lines):
    """Rule ids allowed per 1-based line, from `// lint: allow(...)`.

    An allow on its own line (nothing but the comment) also covers the
    NEXT line, so it can sit above the construct it justifies.
    """
    allows = {}
    for lineno, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        ids = {r.strip() for r in m.group(1).split(",")}
        allows.setdefault(lineno, set()).update(ids)
        if line.strip().startswith("//"):
            allows.setdefault(lineno + 1, set()).update(ids)
    return allows


def send_phase_regions(stripped_lines):
    """1-based line ranges of phase_send_draws function bodies."""
    regions = []
    in_body = False
    depth = 0
    start = None
    pending = False  # signature seen, waiting for the opening brace
    for lineno, line in enumerate(stripped_lines, start=1):
        if not in_body and not pending and SEND_PHASE_OPEN.search(line):
            pending = True
            start = lineno
        if pending or in_body:
            for ch in line:
                if ch == "{":
                    if pending:
                        pending = False
                        in_body = True
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if in_body and depth == 0:
                        regions.append((start, lineno))
                        in_body = False
            if pending and ";" in line and depth == 0:
                pending = False  # declaration, not a definition
    return regions


def lint_file(path, rel, allowlist):
    """Returns (findings, used_allow_keys) for one file."""
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    raw_lines = raw.splitlines()
    stripped = strip_comments_and_strings(raw)
    stripped_lines = stripped.splitlines()
    allows = inline_allows(raw_lines)

    findings = []
    used_allow_keys = set()

    def report(lineno, rule_id, message):
        if rule_id in allows.get(lineno, set()):
            return
        key = (rel, rule_id)
        if key in allowlist:
            used_allow_keys.add(key)
            return
        findings.append((rel, lineno, rule_id, message))

    rel_posix = rel.replace(os.sep, "/")
    for rule in RULES:
        if any(rel_posix == ex for ex in rule.exempt_paths):
            continue
        for lineno, line in enumerate(stripped_lines, start=1):
            if rule.pattern.search(line):
                report(lineno, rule.id, rule.message)

    for lo, hi in send_phase_regions(stripped_lines):
        for lineno in range(lo, hi + 1):
            line = stripped_lines[lineno - 1]
            # CounterRng is the legal coin source; strip it before the
            # stream-Rng match so only genuine Rng/rng uses remain.
            cleaned = line.replace("CounterRng", "")
            if "phase_send_draws" in line and lineno == lo:
                continue  # the signature itself
            if SEND_PHASE_BAD.search(cleaned):
                report(lineno, SEND_PHASE_RULE_ID, SEND_PHASE_MESSAGE)

    return findings, used_allow_keys


def load_allowlist(path):
    entries = {}
    if not path:
        return entries
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(":", 2)
            if len(parts) < 2:
                print(f"{path}:{lineno}: malformed allowlist entry (want path:rule[:why])",
                      file=sys.stderr)
                sys.exit(2)
            entries[(parts[0].strip(), parts[1].strip())] = lineno
    return entries


def iter_sources(root, paths):
    for p in paths:
        base = os.path.join(root, p)
        if os.path.isfile(base):
            yield base
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(EXTENSIONS):
                    yield os.path.join(dirpath, name)


def run_lint(root, paths, allowlist_path):
    allowlist = load_allowlist(allowlist_path)
    all_findings = []
    used = set()
    for path in iter_sources(root, paths):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        findings, used_keys = lint_file(path, rel, allowlist)
        all_findings.extend(findings)
        used |= used_keys
    for finding in all_findings:
        rel, lineno, rule_id, message = finding
        print(f"{rel}:{lineno}: [{rule_id}] {message}")
    stale = set(allowlist) - used
    for rel, rule_id in sorted(stale):
        print(f"note: stale allowlist entry {rel}:{rule_id} (line "
              f"{allowlist[(rel, rule_id)]}) — nothing matches; remove it",
              file=sys.stderr)
    if all_findings:
        print(f"\ndeterminism_lint: {len(all_findings)} finding(s). Fix them, or "
              "justify with `// lint: allow(<rule>)` / an allowlist entry.",
              file=sys.stderr)
        return 1
    if allowlist:
        print(f"determinism_lint: clean ({len(used)}/{len(allowlist)} allowlist entries in use)")
    else:
        print("determinism_lint: clean")
    return 0


# --------------------------------------------------------------- self-test

EXPECT_LINT_RE = re.compile(r"//\s*expect-lint:\s*([a-z0-9-]+)")
EXPECT_CLEAN_RE = re.compile(r"//\s*expect-clean\b")
EXPECT_NOALLOW_RE = re.compile(r"//\s*expect-lint-without-allowlist:\s*([a-z0-9-]+)")


def self_test(fixture_dir):
    allowlist_path = os.path.join(fixture_dir, "allowlist.txt")
    if not os.path.isfile(allowlist_path):
        allowlist_path = None
    allowlist = load_allowlist(allowlist_path)

    failures = []
    checked = 0
    for name in sorted(os.listdir(fixture_dir)):
        if not name.endswith(EXTENSIONS):
            continue
        path = os.path.join(fixture_dir, name)
        with open(path, "r", encoding="utf-8") as f:
            raw = f.read()
        expect_rules = set(EXPECT_LINT_RE.findall(raw))
        expect_clean = bool(EXPECT_CLEAN_RE.search(raw))
        expect_noallow = set(EXPECT_NOALLOW_RE.findall(raw))
        if not (expect_rules or expect_clean or expect_noallow):
            failures.append(f"{name}: fixture declares no expectation "
                            "(add expect-lint / expect-clean)")
            continue
        checked += 1

        findings, _ = lint_file(path, name, allowlist)
        fired = {f[2] for f in findings}
        if expect_clean and fired:
            failures.append(f"{name}: expected clean, but fired {sorted(fired)}")
        missing = expect_rules - fired
        if missing:
            failures.append(f"{name}: expected rule(s) {sorted(missing)} did not fire")
        unexpected = fired - expect_rules
        if unexpected:
            failures.append(f"{name}: unexpected rule(s) {sorted(unexpected)} fired")

        if expect_noallow:
            # The same file WITHOUT the allowlist must fire: proves the
            # allowlist entry is what suppressed it, not the rule failing.
            findings_na, _ = lint_file(path, name, {})
            fired_na = {f[2] for f in findings_na}
            missing_na = expect_noallow - fired_na
            if missing_na:
                failures.append(f"{name}: rule(s) {sorted(missing_na)} did not fire "
                                "even without the allowlist")

    if not checked:
        failures.append(f"no fixtures found under {fixture_dir}")
    for failure in failures:
        print(f"self-test FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"determinism_lint self-test: {checked} fixtures OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".", help="repo root findings are relative to")
    parser.add_argument("--allowlist", default=None, help="path:rule[:why] allowlist file")
    parser.add_argument("--self-test", dest="self_test", default=None,
                        help="fixture directory: run the rule self-test instead of linting")
    parser.add_argument("paths", nargs="*", help="files/dirs to lint, relative to --root")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test(args.self_test))
    if not args.paths:
        parser.error("no paths given (and --self-test not requested)")
    sys.exit(run_lint(os.path.abspath(args.root), args.paths, args.allowlist))


if __name__ == "__main__":
    main()
