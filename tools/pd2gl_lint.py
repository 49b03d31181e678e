#!/usr/bin/env python3
"""Project lint pass for PlatoD2GL (CI tier 4, see docs/static_analysis.md).

Fast, dependency-free checks for project conventions that neither the
compiler nor clang-tidy enforces:

  naked-new         `new` / `delete` expressions. Ownership flows through
                    std::unique_ptr / std::make_unique; a naked allocation
                    is a leak waiting to happen.
  std-rand          std::rand / srand / random_shuffle. All randomness goes
                    through common/random.h (Xoshiro256) so experiments are
                    reproducible from a seed.
  raw-lock-guard    std::lock_guard / std::unique_lock / std::scoped_lock
                    in src/. libstdc++'s guards are invisible to clang
                    -Wthread-safety; use SpinlockGuard / MutexLock (or
                    CondVar::wait on the annotated Mutex) instead.
  unguarded-mutex   a Spinlock / Mutex / std::mutex *member* declared in a
                    file with no GUARDED_BY / REQUIRES / ACQUIRE annotation
                    anywhere: either annotate what the lock protects or
                    mark the file `// pd2gl-lint: allow-unguarded-mutex`
                    with a rationale.
  include-guard     headers must start protection with `#pragma once`.
  relaxed-order     `memory_order_relaxed` on an atomic that is not a
                    plain counter (name suffix _count/_counts/_stat/_stats)
                    needs an adjacent `// order:` comment saying why the
                    relaxation is sound — relaxed loads/stores carry no
                    happens-before edge, and the schedule checker
                    (src/schedcheck/) explores interleavings but not weak
                    memory, so the reasoning must live next to the code.
  nts-comment       NO_THREAD_SAFETY_ANALYSIS without an adjacent comment
                    explaining why the analysis is opted out. An
                    unexplained opt-out is indistinguishable from a
                    silenced bug.
  atomic-tally      a raw std::atomic / sched::Atomic integer *member*
                    in src/ whose name reads as an event tally (hits,
                    rejects, rounds, ...). Monotone statistics belong in
                    obs::MetricRegistry counters (src/obs/metrics.h),
                    declared once as a row of the subsystem's counter list
                    so they are named, exported and snapshotted; raw
                    atomics are for STATE (watermarks, depths, closed
                    flags, snapshots), which the name list deliberately
                    does not match. src/obs/ itself is not checked.
  exact-reserve     a data member reserving exactly its own size plus an
                    increment (`x_.reserve(x_.size() + n)`). A container
                    that keeps growing by small appends then reallocates,
                    copying every element, on each call: quadratic in
                    its length. Let push_back grow it, or reserve
                    max(needed, 2 * capacity()) when it is short.

Comments and string literals are stripped before matching, so prose about
"new insertions" does not trip the allocator rule. Suppress a single line
with `// pd2gl-lint: allow-<rule>`.

Usage: tools/pd2gl_lint.py [paths...]   (default: src tools tests bench examples)
Exit status 0 = clean, 1 = findings printed one per line.
"""

import re
import sys
from pathlib import Path

DEFAULT_PATHS = ["src", "tools", "tests", "bench", "examples"]
SOURCE_SUFFIXES = {".h", ".cc"}

# Files exempt per rule (repo-relative, POSIX slashes).
EXEMPT = {
    "naked-new": {
        # TestMutex pimpl: one raw std::mutex behind a pointer so sched.h
        # stays <mutex>-free in production translation units.
        "src/schedcheck/sched.cc",
    },
    # The annotated wrappers themselves, and the macro definitions.
    "unguarded-mutex": {
        "src/common/spinlock.h",
        "src/common/mutex.h",
        "src/common/thread_annotations.h",
        # The schedule checker's own runtime. It is the thing Spinlock /
        # Mutex route *into* under PD2GL_SCHEDCHECK — its internals must
        # use raw std primitives or every lock would recurse into the
        # model being run.
        "src/schedcheck/sched.cc",
    },
    "raw-lock-guard": {
        "src/schedcheck/sched.cc",  # same reason as unguarded-mutex
    },
}

RE_SUPPRESS = re.compile(r"pd2gl-lint:\s*allow-([a-z-]+)")

RE_NAKED_NEW = re.compile(r"\bnew\b\s+[A-Za-z_:<(]")
RE_NAKED_DELETE = re.compile(r"\bdelete\b\s*(\[\s*\])?\s*[A-Za-z_*(]")
RE_STD_RAND = re.compile(r"\b(?:std::)?s?rand\s*\(|\bstd::random_shuffle\b")
RE_RAW_GUARD = re.compile(
    r"\bstd::(?:lock_guard|unique_lock|scoped_lock)\b")
RE_MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:Spinlock|Mutex|std::(?:shared_)?mutex)\s+"
    r"[a-z_][A-Za-z0-9_]*_?\s*(?:\{[^}]*\})?\s*;")
RE_TSA_ANNOTATION = re.compile(
    r"\b(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|EXCLUDES)\b")
RE_RELAXED = re.compile(r"\bmemory_order_relaxed\b")
# The atomic variable an operation targets: `name.load(...)`,
# `name->fetch_add(...)`, etc. Searched over a small window of joined
# lines so multi-line compare_exchange calls still resolve their target.
RE_ATOMIC_OP_TARGET = re.compile(
    r"(\w+)\s*(?:\.|->)\s*(?:load|store|exchange|fetch_(?:add|sub|and|or|"
    r"xor)|compare_exchange_(?:weak|strong))\s*\(")
# Counter suffixes that are self-evidently relaxed-safe: the value is a
# monotonic tally read for reporting, never used to publish other state.
RE_COUNTER_NAME = re.compile(r"(?:_counts?|_stats?)_?$")
RE_ORDER_COMMENT = re.compile(r"//\s*order:")
RE_NTS = re.compile(r"\bNO_THREAD_SAFETY_ANALYSIS\b")
# `name_.reserve(name_.size() + ...)`: a member growing by an exact step.
RE_EXACT_RESERVE = re.compile(
    r"\b([A-Za-z_]\w*_)\s*\.\s*reserve\s*\(\s*\1\s*\.\s*size\s*\(\s*\)"
    r"\s*\+")
# An atomic integer member declaration and its name. Arrays (histogram
# bucket banks) intentionally do not match.
RE_ATOMIC_INT_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?(?:std::atomic|sched::Atomic)<\s*"
    r"std::(?:u?int\d+_t|size_t)\s*>\s+(\w+)\s*(?:\{[^}]*\})?\s*;")
# Names that read as event tallies — the vocabulary the obs migration
# moved into registry counters. STATE names (watermark_, queued_,
# *_snapshot_, next_seq_, epoch_...) deliberately do not match.
RE_TALLY_NAME = re.compile(
    r"(?:^|_)(?:requests|hits|misses|drops|dropped|rejects|rejected|"
    r"accepted|admitted|shed|evicted|published|retries|faults|rounds|"
    r"batches|totals?|tall(?:y|ies)|counts?)_?$")


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line breaks
    (and the lint-suppression markers, which live in comments)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            marker = RE_SUPPRESS.search(text[i:j])
            out.append(marker.group(0) if marker else "")
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def lint_file(path, rel):
    findings = []
    raw = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments_and_strings(raw)
    lines = code.splitlines()
    raw_lines = raw.splitlines()

    def has_nearby_comment(lineno, pattern, reach):
        """True when `pattern` matches a raw line in [lineno-reach, lineno]
        (1-based; comments live in raw, not in the stripped code)."""
        lo = max(0, lineno - 1 - reach)
        return any(pattern.search(raw_lines[k])
                   for k in range(lo, min(lineno, len(raw_lines))))

    def check(rule, lineno, message):
        if rel in EXEMPT.get(rule, set()):
            return
        line = lines[lineno - 1] if lineno - 1 < len(lines) else ""
        if f"allow-{rule}" in line:
            return
        findings.append((rel, lineno, rule, message))

    in_tests = rel.startswith("tests/")
    for lineno, line in enumerate(lines, 1):
        if RE_NAKED_NEW.search(line):
            check("naked-new", lineno,
                  "naked `new`: use std::make_unique")
        if RE_NAKED_DELETE.search(line) and "= delete" not in line:
            check("naked-new", lineno,
                  "naked `delete`: ownership belongs in a smart pointer")
        if RE_STD_RAND.search(line):
            check("std-rand", lineno,
                  "non-seedable randomness: use Xoshiro256 from "
                  "common/random.h")
        if not in_tests and RE_RAW_GUARD.search(line):
            check("raw-lock-guard", lineno,
                  "std lock guards are invisible to -Wthread-safety: use "
                  "SpinlockGuard / MutexLock")
        if RE_RELAXED.search(line):
            # Resolve the atomic this relaxation targets; a multi-line
            # call keeps the target a few lines up.
            window = " ".join(lines[max(0, lineno - 4):lineno])
            targets = RE_ATOMIC_OP_TARGET.findall(window)
            name = targets[-1] if targets else ""
            # One comment may head an unbroken run of relaxed operations
            # (stats snapshot/reset blocks): walk up through the run.
            k = lineno
            while not has_nearby_comment(k, RE_ORDER_COMMENT, 3) and \
                    k >= 2 and RE_RELAXED.search(lines[k - 2]):
                k -= 1
            if not RE_COUNTER_NAME.search(name) and \
                    not has_nearby_comment(k, RE_ORDER_COMMENT, 3):
                check("relaxed-order", lineno,
                      "memory_order_relaxed on non-counter atomic "
                      f"`{name or '?'}`: add an adjacent `// order:` "
                      "comment justifying the relaxation")
        if rel.startswith("src/") and not rel.startswith("src/obs/"):
            m = RE_ATOMIC_INT_MEMBER.match(line)
            if m and RE_TALLY_NAME.search(m.group(1)):
                check("atomic-tally", lineno,
                      f"atomic tally member `{m.group(1)}`: monotone "
                      "statistics belong in an obs::MetricRegistry "
                      "Counter (src/obs/metrics.h), not a raw atomic")
        if RE_EXACT_RESERVE.search(line):
            check("exact-reserve", lineno,
                  "member reserves exactly size() + n: it reallocates on "
                  "every append; grow geometrically instead")
        if RE_NTS.search(line) and \
                not has_nearby_comment(lineno, re.compile(r"//"), 3):
            check("nts-comment", lineno,
                  "NO_THREAD_SAFETY_ANALYSIS without an explanation: add "
                  "a comment saying why the analysis is opted out")

    if path.suffix == ".h":
        head = "\n".join(raw.splitlines()[:40])
        if "#pragma once" not in head:
            check("include-guard", 1, "header is missing `#pragma once`")

    if not RE_TSA_ANNOTATION.search(code):
        for lineno, line in enumerate(lines, 1):
            if RE_MUTEX_MEMBER.match(line):
                check("unguarded-mutex", lineno,
                      "mutex member in a file with no thread-safety "
                      "annotations: add GUARDED_BY on the protected state")
                break

    return findings


def main(argv):
    root = Path(__file__).resolve().parent.parent
    targets = argv[1:] or DEFAULT_PATHS
    files = []
    for t in targets:
        p = (root / t) if not Path(t).is_absolute() else Path(t)
        if p.is_dir():
            files.extend(sorted(q for q in p.rglob("*")
                                if q.suffix in SOURCE_SUFFIXES))
        elif p.suffix in SOURCE_SUFFIXES:
            files.append(p)

    findings = []
    for f in files:
        rel = f.relative_to(root).as_posix() if f.is_relative_to(root) \
            else str(f)
        findings.extend(lint_file(f, rel))

    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    print(f"pd2gl_lint: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
