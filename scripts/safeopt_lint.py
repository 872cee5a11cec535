#!/usr/bin/env python3
"""safeopt-lint — fast project-invariant linter for the safeopt tree.

The rules encode repo invariants that are cheaper to enforce here than to
rediscover in review (docs/static_analysis.md has the full rationale):

  string-concat-plus   `operator+` on a string literal (the gcc PR105651
                       -Wrestrict idiom). Use safeopt::concat from
                       safeopt/support/strings.h.
  error-taxonomy       `throw std::runtime_error` / `throw std::logic_error`
                       in src/. Throw safeopt::Error with a category from
                       the PR 7 taxonomy (or std::invalid_argument for
                       precondition violations) instead.
  raw-mutex            std::mutex / lock_guard / unique_lock / scoped_lock /
                       shared_mutex outside the annotated wrapper
                       (safeopt/support/mutex.h). Use safeopt::Mutex /
                       MutexLock so the clang -Wthread-safety CI leg sees
                       the lock discipline.
  unseeded-rng         rand() / srand() / std::random_device. All safeopt
                       randomness flows through explicitly seeded xoshiro
                       streams (safeopt/support/rng.h) so every trajectory
                       is reproducible.
  checkpoint-poll      A file the robustness docs declare checkpointed
                       (long-running engine loops) no longer polls its
                       ExecutionControl. The declared file list lives in
                       CHECKPOINTED_FILES below; files can also self-declare
                       with a `safeopt-lint: checkpointed` comment.
  cpu-detect           __builtin_cpu_supports / __get_cpuid outside the one
                       detection TU (src/expr/cpu_features.cpp). Scattered
                       CPUID probes drift out of sync with the backend
                       registry's availability policy; ask
                       safeopt::expr::cpu_features() instead.
  number-parse         strtod / strtof / strto[u]l[l] / atof / atoi /
                       atol[l] / std::sto*. They accept what a typed
                       option must refuse (hex floats, "inf", a leading
                       '+' or whitespace, a valid prefix with trailing
                       junk), wrap or saturate silently and depend on the
                       C locale. Use std::from_chars, or
                       parse_key_value_argument for KEY=VALUE arguments.

Suppression pragmas (always in a comment, rule name exact):
  // safeopt-lint: allow(<rule>)         this line or the next line
  // safeopt-lint: allow-file(<rule>)    whole file

Usage:
  safeopt_lint.py [--root DIR] PATH...     lint files/directories
  safeopt_lint.py --self-test FIXTURES     run the fixture corpus
  safeopt_lint.py --list-rules
Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_SUFFIXES = {".cpp", ".cc", ".cxx", ".h", ".hpp"}

# Files allowed to touch the raw std primitives: the wrapper itself has to
# bottom out on std::mutex, and the annotation header names the attributes.
RAW_MUTEX_ALLOWED = {
    "src/support/include/safeopt/support/mutex.h",
}

# Files whose long-running loops the robustness contract declares
# cooperatively interruptible (docs/robustness.md): each must poll an
# ExecutionControl at least once or the abort paths silently rot.
CHECKPOINTED_FILES = {
    "src/bdd/bdd.cpp",
    "src/fta/cut_sets.cpp",
    "src/prep/preprocess.cpp",
    "src/mc/adaptive_monte_carlo.cpp",
    "src/opt/solver.cpp",
    "src/serve/analysis_graph.cpp",
}

# The single TU allowed to probe the CPU: every other module asks the cached
# safeopt::expr::cpu_features() so availability decisions have one source.
CPU_DETECT_ALLOWED = {
    "src/expr/cpu_features.cpp",
}

CHECKPOINT_POLL = re.compile(
    r"\.check\(|->check\(|should_abort\(|->status\(|\.status\(")

PRAGMA = re.compile(r"safeopt-lint:\s*(allow|allow-file|checkpointed)"
                    r"(?:\(([A-Za-z0-9_-]+)\))?")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(text: str):
    """Blanks comments and literal bodies, preserving line structure.

    Returns (code_lines, raw_lines). Comments become spaces; string and
    char literal *contents* become spaces but keep their quotes, so a
    quote adjacent to an operator is still visible to the rules while a
    `+` inside a literal is not.
    """
    raw_lines = text.splitlines()
    out = []
    i = 0
    n = len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW_STRING = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                end = text.find("(", i + 2)
                if end != -1:
                    raw_delim = ")" + text[i + 2:end] + '"'
                    state = RAW_STRING
                    out.append('R"')
                    out.append(" " * (end - i - 1))
                    i = end + 1
                    continue
            if c == '"':
                state = STRING
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = CHAR
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == STRING:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = NORMAL
                out.append('"')
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == CHAR:
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = NORMAL
                out.append("'")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == RAW_STRING:
            if text.startswith(raw_delim, i):
                state = NORMAL
                out.append('"')
                out.append(" " * (len(raw_delim) - 1))
                i += len(raw_delim)
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    code_lines = "".join(out).splitlines()
    # splitlines drops a trailing partial line mismatch; pad to raw length.
    while len(code_lines) < len(raw_lines):
        code_lines.append("")
    return code_lines, raw_lines


def collect_pragmas(raw_lines):
    """Returns (file_allows, line_allows, self_checkpointed)."""
    file_allows = set()
    line_allows = {}  # line number (1-based) -> set of rules
    checkpointed = False
    for idx, line in enumerate(raw_lines, start=1):
        for match in PRAGMA.finditer(line):
            kind, rule = match.group(1), match.group(2)
            if kind == "checkpointed":
                checkpointed = True
            elif kind == "allow-file" and rule:
                file_allows.add(rule)
            elif kind == "allow" and rule:
                # Covers the pragma's own line and the following line, so
                # the comment can sit above the offending statement.
                line_allows.setdefault(idx, set()).add(rule)
                line_allows.setdefault(idx + 1, set()).add(rule)
    return file_allows, line_allows, checkpointed


# `"…" +` or `+ "…"` with ++/+= excluded; literal bodies are blanked, so a
# `+` inside a string cannot trip this, and a literal is any quoted span.
CONCAT_LITERAL = re.compile(r'"\s*\+(?![+=])|(?<!\+)(?<!\+\s)\+\s*"')
THROW_STD = re.compile(r"\bthrow\s+std::(runtime_error|logic_error)\b")
RAW_MUTEX = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b")
UNSEEDED_RNG = re.compile(r"(?<![\w:])(?:s?rand)\s*\(|\bstd::random_device\b")
NUMBER_PARSE = re.compile(
    r"(?<![\w.>])(?:std::)?(?:strto(?:d|f|ld|l|ll|ul|ull)|"
    r"ato(?:f|i|l|ll))\s*\(|"
    r"\bstd::sto(?:i|l|ll|ul|ull|f|d|ld)\s*\(")
CPU_DETECT = re.compile(
    r"\b__builtin_cpu_(?:supports|init)\b|\b__get_cpuid(?:_count)?\b|"
    r"\b_may_i_use_cpu_feature\b")


def lint_file(path: Path, rel: str, rules):
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as error:
        return [Finding(rel, 0, "io", f"unreadable: {error}")]

    code_lines, raw_lines = strip_code(text)
    file_allows, line_allows, self_checkpointed = collect_pragmas(raw_lines)
    findings = []

    def report(lineno: int, rule: str, message: str):
        if rule in file_allows:
            return
        if rule in line_allows.get(lineno, ()):  # pragma on line or above
            return
        findings.append(Finding(rel, lineno, rule, message))

    for idx, line in enumerate(code_lines, start=1):
        if "string-concat-plus" in rules and CONCAT_LITERAL.search(line):
            report(idx, "string-concat-plus",
                   "operator+ on a string literal trips gcc 12 -Wrestrict "
                   "(PR105651) and allocates per step; use safeopt::concat")
        if "error-taxonomy" in rules:
            match = THROW_STD.search(line)
            if match:
                report(idx, "error-taxonomy",
                       f"throw std::{match.group(1)} bypasses the "
                       "safeopt::Error taxonomy; throw "
                       "Error(ErrorCategory::…, …) so callers can react to "
                       "the category")
        if ("raw-mutex" in rules and rel not in RAW_MUTEX_ALLOWED
                and RAW_MUTEX.search(line)):
            report(idx, "raw-mutex",
                   "raw std synchronization primitive; use safeopt::Mutex / "
                   "MutexLock (safeopt/support/mutex.h) so clang "
                   "-Wthread-safety sees the lock discipline")
        if "unseeded-rng" in rules and UNSEEDED_RNG.search(line):
            report(idx, "unseeded-rng",
                   "unseeded/global randomness; use the explicitly seeded "
                   "xoshiro streams (safeopt/support/rng.h) to keep runs "
                   "reproducible")
        if ("cpu-detect" in rules and rel not in CPU_DETECT_ALLOWED
                and CPU_DETECT.search(line)):
            report(idx, "cpu-detect",
                   "raw CPUID probe outside src/expr/cpu_features.cpp; ask "
                   "safeopt::expr::cpu_features() so backend availability "
                   "has one cached source of truth")

        if "number-parse" in rules:
            match = NUMBER_PARSE.search(line)
            if match:
                report(idx, "number-parse",
                       f"{match.group(0).rstrip('( ')} parses numbers "
                       "leniently (hex, inf, trailing junk, locale); use "
                       "std::from_chars or parse_key_value_argument")

    if "checkpoint-poll" in rules:
        declared = rel in CHECKPOINTED_FILES or self_checkpointed
        if declared and "checkpoint-poll" not in file_allows:
            code = "\n".join(code_lines)
            if not CHECKPOINT_POLL.search(code):
                report(1, "checkpoint-poll",
                       "file is declared checkpointed (docs/robustness.md) "
                       "but never polls an ExecutionControl "
                       "(.check()/should_abort()/status())")
    return findings


ALL_RULES = ("string-concat-plus", "error-taxonomy", "raw-mutex",
             "unseeded-rng", "checkpoint-poll", "cpu-detect", "number-parse")


def iter_sources(paths, root: Path):
    for path in paths:
        p = (root / path) if not Path(path).is_absolute() else Path(path)
        if p.is_dir():
            for child in sorted(p.rglob("*")):
                if child.suffix in SOURCE_SUFFIXES and child.is_file():
                    yield child
        elif p.is_file():
            yield p
        else:
            raise FileNotFoundError(path)


def run_lint(args) -> int:
    root = Path(args.root).resolve()
    rules = set(args.rule) if args.rule else set(ALL_RULES)
    unknown = rules - set(ALL_RULES)
    if unknown:
        print(f"unknown rule(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2
    findings = []
    for source in iter_sources(args.paths, root):
        try:
            rel = source.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = source.as_posix()
        findings.extend(lint_file(source, rel, rules))
    for finding in findings:
        print(finding)
    if findings:
        print(f"safeopt-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def run_self_test(fixtures: Path) -> int:
    """Fixture layout: <fixtures>/<rule>/good*.cpp must be clean for <rule>;
    <fixtures>/<rule>/bad*.cpp must produce >=1 finding of <rule>."""
    failures = []
    checked = 0
    for rule_dir in sorted(p for p in fixtures.iterdir() if p.is_dir()):
        rule = rule_dir.name
        if rule not in ALL_RULES:
            failures.append(f"{rule_dir}: not a rule name")
            continue
        for fixture in sorted(rule_dir.iterdir()):
            if fixture.suffix not in SOURCE_SUFFIXES:
                continue
            checked += 1
            rel = fixture.as_posix()
            found = [f for f in lint_file(fixture, rel, {rule})
                     if f.rule == rule]
            if fixture.name.startswith("good") and found:
                failures.append(
                    f"{rel}: expected clean, got: " +
                    "; ".join(str(f) for f in found))
            elif fixture.name.startswith("bad") and not found:
                failures.append(f"{rel}: expected >=1 {rule} finding, got 0")
    if checked == 0:
        failures.append(f"{fixtures}: no fixtures found")
    for failure in failures:
        print(f"SELF-TEST FAIL: {failure}")
    print(f"safeopt-lint self-test: {checked} fixture(s), "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories to lint (relative to "
                             "--root)")
    parser.add_argument("--root", default=".",
                        help="repo root; findings and allow-lists use paths "
                             "relative to it")
    parser.add_argument("--rule", action="append",
                        help="restrict to the given rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--self-test", metavar="FIXTURES",
                        help="run the good/bad fixture corpus and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(rule)
        return 0
    if args.self_test:
        return run_self_test(Path(args.self_test))
    if not args.paths:
        parser.error("no paths given (try: src)")
    return run_lint(args)


if __name__ == "__main__":
    sys.exit(main())
