#!/usr/bin/env python3
"""seed_lint: in-tree contract linter for the seed engine.

Checks the file-level contracts that the compiler and clang's
thread-safety analysis cannot see (docs/static_analysis.md):

  metric-name        Metric names registered via MetricsRegistry::Get*
                     must follow docs/metrics.md: dotted lower_snake
                     segments, a known subsystem prefix, and counters
                     must end in .total / .bytes / .ns.
  metric-once        Each metric name has exactly one registration site
                     in src/ (function-local-static caching means a
                     second site would silently alias the first).
  morsel-capture     Lambdas handed to ParallelFor / PartitionedEmit
                     must use an explicit capture list (no [&] / [=]),
                     and must not capture engine state by reference:
                     members (trailing '_') and globals ('g_' prefix)
                     are rejected; function locals are allowed.
  naked-thread       std::thread appears only under src/exec/ — every
                     other subsystem schedules through the WorkerPool.
  determinism        rand()/srand()/time() are banned in src/; engine
                     randomness goes through common/random.h so runs
                     are reproducible.
  include-guard      Header guards spell the path: src/a/b.h guards
                     with SEED_A_B_H_.

Usage:
  seed_lint.py --root <repo> [--self-test]

--self-test first runs every rule over tools/lint/fixtures/ and fails
unless each seeded violation is caught exactly where its `lint-expect`
comment says (and nowhere else), then lints the real tree, which must
be clean. Exit status 0 only if both hold.
"""

import argparse
import os
import re
import sys

SUBSYSTEMS = (
    "core", "index", "storage", "multiuser", "version",
    "query", "algebra", "exec", "obs", "server",
    # Statistics-v2 / plan-cache instruments (docs/metrics.md): the
    # planner's cache, DP and estimate-quality instruments, and the
    # estimation layer's histogram instruments.
    "planner", "stats",
)

METRIC_NAME_RE = re.compile(
    r"^(%s)(\.[a-z][a-z0-9_]*)+$" % "|".join(SUBSYSTEMS))
COUNTER_SUFFIXES = (".total", ".bytes", ".ns")

GET_METRIC_RE = re.compile(
    r"\b(GetCounter|GetGauge|GetHistogram)\s*\(\s*\"([^\"]*)\"")
MORSEL_ENTRY_RE = re.compile(r"\b(ParallelFor|PartitionedEmit)\s*\(")
THREAD_RE = re.compile(r"\bstd::thread\b")
RAND_TIME_RE = re.compile(r"\b(rand|srand|time)\s*\(")
GUARD_RE = re.compile(r"^\s*#ifndef\s+(\S+)", re.MULTILINE)
EXPECT_RE = re.compile(r"lint-expect:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")

# Comment/string stripper. Line comments are kept as newlines so line
# numbers survive; string literals become empty so quoted text (error
# messages, paths) can't trip code-pattern rules. Metric literals are
# extracted from the raw text *before* stripping.
STRIP_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:[^\"\\\n]|\\.)*\"|'(?:[^'\\\n]|\\.)*'",
    re.DOTALL)


def _strip(text):
    def repl(m):
        return '""' + "\n" * m.group(0).count("\n") if m.group(0)[0] in "\"'" \
            else "\n" * m.group(0).count("\n")
    return STRIP_RE.sub(repl, text)


def _line_of(text, pos):
    return text.count("\n", 0, pos) + 1


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def _iter_sources(src_root, exts):
    for dirpath, _, names in sorted(os.walk(src_root)):
        for name in sorted(names):
            if name.endswith(exts):
                yield os.path.join(dirpath, name)


# --- Rules -------------------------------------------------------------------

def check_metrics(files, rel):
    findings = []
    sites = {}  # name -> [(path, line)]
    for path, raw, _ in files:
        stripped_comments = re.sub(r"//[^\n]*|/\*.*?\*/",
                                   lambda m: "\n" * m.group(0).count("\n"),
                                   raw, flags=re.DOTALL)
        for m in GET_METRIC_RE.finditer(stripped_comments):
            kind, name = m.group(1), m.group(2)
            line = _line_of(stripped_comments, m.start())
            sites.setdefault(name, []).append((path, line))
            if not METRIC_NAME_RE.match(name):
                findings.append(Finding(
                    "metric-name", rel(path), line,
                    "metric %r does not match <subsystem>.<noun>.<unit> "
                    "(subsystems: %s)" % (name, ", ".join(SUBSYSTEMS))))
            elif kind == "GetCounter" and \
                    not name.endswith(COUNTER_SUFFIXES):
                findings.append(Finding(
                    "metric-name", rel(path), line,
                    "counter %r must end in one of %s" %
                    (name, "/".join(COUNTER_SUFFIXES))))
    for name, where in sorted(sites.items()):
        if len(where) > 1:
            extra = ", ".join("%s:%d" % (rel(p), ln) for p, ln in where[1:])
            findings.append(Finding(
                "metric-once", rel(where[0][0]), where[0][1],
                "metric %r registered at %d sites (also %s); hoist into "
                "one helper" % (name, len(where), extra)))
    return findings


def _capture_list_at(code, open_bracket):
    """Returns (captures-string, found) for a lambda intro at '['."""
    depth, i = 0, open_bracket
    while i < len(code):
        if code[i] == "[":
            depth += 1
        elif code[i] == "]":
            depth -= 1
            if depth == 0:
                return code[open_bracket + 1:i], True
        i += 1
    return "", False


def check_morsel_captures(files, rel):
    findings = []
    for path, _, code in files:
        for m in MORSEL_ENTRY_RE.finditer(code):
            # Find the first lambda introducer in this call's argument
            # list (scan a bounded window past the call). Definitions
            # match too, but their parameter lists carry no lambda, and
            # a stray index expression parses as an empty-of-& capture
            # list, so they never produce findings.
            window = code[m.end():m.end() + 400]
            lam = window.find("[")
            if lam < 0:
                continue
            captures, ok = _capture_list_at(window, lam)
            if not ok:
                continue
            line = _line_of(code, m.end() + lam)
            items = [c.strip() for c in captures.split(",") if c.strip()]
            for item in items:
                if item in ("&", "="):
                    findings.append(Finding(
                        "morsel-capture", rel(path), line,
                        "lambda passed to %s uses default capture [%s]; "
                        "spell out every capture so reviewers and the "
                        "linter can see what crosses the thread boundary"
                        % (m.group(1), item)))
                elif item.startswith("&"):
                    name = item[1:].strip()
                    if name.endswith("_") or name.startswith("g_"):
                        findings.append(Finding(
                            "morsel-capture", rel(path), line,
                            "lambda passed to %s captures engine state "
                            "%r by reference; members and globals must "
                            "be copied, atomic, or reached through a "
                            "locked API" % (m.group(1), item)))
    return findings


def check_naked_threads(files, rel, exec_dir):
    findings = []
    for path, _, code in files:
        if os.path.normpath(path).startswith(exec_dir + os.sep):
            continue
        for m in THREAD_RE.finditer(code):
            findings.append(Finding(
                "naked-thread", rel(path), _line_of(code, m.start()),
                "std::thread outside src/exec/; schedule through "
                "exec::WorkerPool so shutdown, helping, and TSan "
                "coverage stay centralized"))
    return findings


def check_determinism(files, rel):
    findings = []
    for path, _, code in files:
        for m in RAND_TIME_RE.finditer(code):
            findings.append(Finding(
                "determinism", rel(path), _line_of(code, m.start()),
                "%s() in src/; use common/random.h (seeded PRNG) or "
                "obs::NowNanos so engine runs stay reproducible"
                % m.group(1)))
    return findings


def check_include_guards(files, rel, src_root):
    findings = []
    for path, raw, _ in files:
        if not path.endswith(".h"):
            continue
        relpath = os.path.relpath(path, src_root)
        expected = "SEED_" + re.sub(r"[/\\.]", "_", relpath).upper() + "_"
        m = GUARD_RE.search(raw)
        if not m:
            findings.append(Finding(
                "include-guard", rel(path), 1,
                "header has no #ifndef include guard (expected %s)"
                % expected))
        elif m.group(1) != expected:
            findings.append(Finding(
                "include-guard", rel(path), _line_of(raw, m.start()),
                "guard %s does not spell the path; expected %s"
                % (m.group(1), expected)))
    return findings


# --- Driver ------------------------------------------------------------------

def lint_tree(src_root, repo_root):
    def rel(path):
        return os.path.relpath(path, repo_root)

    files = []
    for path in _iter_sources(src_root, (".h", ".cc")):
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        files.append((path, raw, _strip(raw)))

    findings = []
    findings += check_metrics(files, rel)
    findings += check_morsel_captures(files, rel)
    findings += check_naked_threads(files, rel,
                                    os.path.join(src_root, "exec"))
    findings += check_determinism(files, rel)
    findings += check_include_guards(files, rel, src_root)
    return findings


def self_test(fixtures_root, repo_root):
    """Every fixture's `lint-expect:` rules must fire in that file, and no
    other rule may fire anywhere in the fixture tree."""
    errors = []
    expected = {}  # relpath -> set(rules)
    for path in _iter_sources(fixtures_root, (".h", ".cc")):
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        rules = set()
        for m in EXPECT_RE.finditer(raw):
            rules.update(r.strip() for r in m.group(1).split(","))
        expected[os.path.relpath(path, repo_root)] = rules

    findings = lint_tree(fixtures_root, repo_root)
    got = {}
    for f in findings:
        got.setdefault(f.path, set()).add(f.rule)

    for path, rules in sorted(expected.items()):
        missing = rules - got.get(path, set())
        for rule in sorted(missing):
            errors.append("fixture %s: rule %s did not fire" % (path, rule))
        surplus = got.get(path, set()) - rules
        for rule in sorted(surplus):
            errors.append("fixture %s: rule %s fired unexpectedly" %
                          (path, rule))
    for path in sorted(set(got) - set(expected)):
        errors.append("finding in unknown fixture file %s" % path)
    if not any(expected.values()):
        errors.append("no lint-expect annotations found under %s" %
                      fixtures_root)
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--self-test", action="store_true",
                    help="validate rules against tools/lint/fixtures/ "
                         "before linting the real tree")
    args = ap.parse_args()

    repo_root = os.path.abspath(args.root)
    src_root = os.path.join(repo_root, "src")
    if not os.path.isdir(src_root):
        print("seed_lint: no src/ under %s" % repo_root, file=sys.stderr)
        return 2

    status = 0
    if args.self_test:
        fixtures = os.path.join(repo_root, "tools", "lint", "fixtures")
        errors = self_test(fixtures, repo_root)
        if errors:
            for e in errors:
                print("seed_lint [self-test] %s" % e, file=sys.stderr)
            status = 1
        else:
            print("seed_lint: self-test OK (%d fixtures)" %
                  len(list(_iter_sources(fixtures, (".h", ".cc")))))

    findings = lint_tree(src_root, repo_root)
    for f in findings:
        print("seed_lint: %s" % f, file=sys.stderr)
    if findings:
        status = 1
    else:
        print("seed_lint: src/ clean")
    return status


if __name__ == "__main__":
    sys.exit(main())
