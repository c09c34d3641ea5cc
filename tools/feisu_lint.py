#!/usr/bin/env python3
"""feisu-lint: project-specific static checks for the Feisu codebase.

Rules (see docs/STATIC_ANALYSIS.md for rationale):

  void-cast-call   No silencing of [[nodiscard]] results by casting a call
                   expression to void: `(void)DoThing();` hides failures.
                   Casting an already-bound *identifier* to void (to mark a
                   deliberately unused variable) is fine.
  naked-new        No raw `new` / `delete` outside arena/allocator code.
                   Ownership must flow through smart pointers/containers.
                   Justified exceptions carry an inline waiver comment:
                   `// feisu-lint: allow(naked-new): <reason>`.
  wall-clock       No wall-clock or ambient randomness (`std::time`,
                   `rand`, `system_clock`, `random_device`, ...). The
                   engine is a deterministic simulation: all time comes
                   from SimClock, all randomness from the seeded Rng.
  direct-output    No `std::cout` / `printf`-family output from library
                   code in src/. Use common/logging.h so output is
                   capturable and rate-controlled.
  include-guard    Header guards must be FEISU_<PATH>_H_ derived from the
                   path under src/ (e.g. src/index/index_cache.h =>
                   FEISU_INDEX_INDEX_CACHE_H_).
  raw-mutex        No raw std locking primitives (`std::mutex`,
                   `std::lock_guard`, `std::condition_variable`, ...)
                   outside src/common/. Use the annotated wrappers in
                   common/annotations.h so -Wthread-safety can see every
                   lock; a raw mutex is invisible to the analysis.
  no-analysis      `FEISU_NO_THREAD_SAFETY_ANALYSIS` must carry a
                   justification comment on the same line or the line
                   above. Opting out of the analysis silently is how
                   races come back.
  detached-thread  No ad-hoc thread spawning (`std::thread`,
                   `std::jthread`, `std::async`) or `.detach()` outside
                   src/common/. All host-level parallelism flows through
                   ThreadPool so lifetimes are joined and task order is
                   reasoned about in one place. Test code under tests/
                   is exempt (hammer tests spawn raw threads on purpose).
  sim-clock        No raw monotonic clocks or sleeps (`steady_clock`,
                   `high_resolution_clock`, `sleep_for`, `usleep`, ...)
                   in src/cluster/: scheduling, straggler detection and
                   deadline bookkeeping must be keyed to SimTime through
                   SimClock so fault schedules replay byte-identically.
                   The repo-wide wall-clock rule already bans calendar
                   time; this closes the monotonic loophole where it
                   matters most.
  bare-nolint      Every clang-tidy suppression must name the check it
                   silences and say why: `// NOLINT(check-name): reason`.
                   A bare `NOLINT`, a wildcard check set, or a named check
                   with no justification turns off analysis silently and
                   keeps doing so after the original cause is gone.
  per-row-getvalue No `GetValue()` calls inside a loop in src/exec/ or
                   src/expr/: boxing every cell through a Value variant is
                   the per-row slow path the typed batch kernels (the
                   aggregation and comparison kernels, and the
                   compressed-domain kernels) exist to avoid. Hot operators
                   and the evaluator must use the typed column accessors.
                   Genuine single-row sites carry an inline waiver:
                   `// feisu-lint: allow(per-row-getvalue): <reason>`.
  stale-waiver     A `feisu-lint: allow(...)` comment that no longer
                   suppresses any finding (or names an unknown rule) is
                   itself a violation: dead waivers keep silencing the
                   rule after the original cause is gone. On by default;
                   `--no-stale-waivers` disables the sweep.

Exit status: 0 when no violations, 1 when violations were reported,
2 on usage errors. `--self-test` checks the seeded fixture files under
tools/lint_fixtures/ each trip exactly their intended rule.
`--changed-only` restricts linting to files changed vs. HEAD (staged,
unstaged, and untracked) for fast pre-commit runs.
"""

import argparse
import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tools", "lint_fixtures")

SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")

WAIVER_RE = re.compile(r"feisu-lint:\s*allow\(([a-z-]+)\)")

KNOWN_RULES = frozenset((
    "void-cast-call", "naked-new", "wall-clock", "direct-output",
    "include-guard", "raw-mutex", "no-analysis", "detached-thread",
    "sim-clock", "bare-nolint", "per-row-getvalue"))

# A call expression cast to void: `(void)Foo(...)`, `(void)obj.Method(...)`,
# `(void)ns::Fn(...)`. `(void)identifier;` does not match (no call parens).
VOID_CAST_CALL_RE = re.compile(
    r"\(\s*void\s*\)\s*[A-Za-z_][A-Za-z0-9_]*"
    r"(?:(?:\.|->|::)[A-Za-z_][A-Za-z0-9_]*)*\s*\(")

NAKED_NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_(]")
NAKED_DELETE_RE = re.compile(r"(?<![\w.])delete(?:\s*\[\s*\])?\s+[A-Za-z_(*]")

WALL_CLOCK_RES = [
    re.compile(r"\bstd::time\b"),
    re.compile(r"\bstd::rand\b"),
    re.compile(r"\bstd::srand\b"),
    re.compile(r"(?<![\w:.>])rand\s*\("),
    re.compile(r"(?<![\w:.>])srand\s*\("),
    re.compile(r"(?<![\w:.>])time\s*\("),
    re.compile(r"\bgettimeofday\b"),
    re.compile(r"\bclock_gettime\b"),
    re.compile(r"\blocaltime\b"),
    re.compile(r"\bstd::chrono::system_clock\b"),
    re.compile(r"\bstd::random_device\b"),
]

DIRECT_OUTPUT_RES = [
    re.compile(r"\bstd::cout\b"),
    re.compile(r"\bstd::cerr\b"),
    re.compile(r"(?<![\w:.>])f?printf\s*\("),
    re.compile(r"(?<![\w:.>])puts\s*\("),
]

GUARD_IFNDEF_RE = re.compile(r"^\s*#ifndef\s+([A-Za-z0-9_]+)")

RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock|condition_variable(?:_any)?)\b")

THREAD_SPAWN_RES = [
    re.compile(r"\bstd::(?:thread|jthread)\b"),
    re.compile(r"\bstd::async\b"),
    re.compile(r"\.\s*detach\s*\(\s*\)"),
]

NO_ANALYSIS_RE = re.compile(r"\bFEISU_NO_THREAD_SAFETY_ANALYSIS\b")

# clang-tidy suppression tokens. NOLINTEND is exempt (it closes a BEGIN
# whose check list and justification are validated at the BEGIN site).
NOLINT_TOKEN_RE = re.compile(r"\bNOLINT(NEXTLINE|BEGIN|END)?\b")

PER_ROW_GETVALUE_RE = re.compile(r"(?:\.|->)\s*GetValue\s*\(")
LOOP_HEADER_RE = re.compile(r"(?<![\w])(?:for|while)\s*\(")

SIM_CLOCK_RES = [
    re.compile(r"\bstd::chrono::steady_clock\b"),
    re.compile(r"\bstd::chrono::high_resolution_clock\b"),
    re.compile(r"\bstd::this_thread::sleep_(?:for|until)\b"),
    re.compile(r"(?<![\w:.>])(?:usleep|nanosleep)\s*\("),
    re.compile(r"(?<![\w:.>])sleep\s*\("),
]


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        rel = os.path.relpath(self.path, REPO_ROOT)
        return "%s:%d: [%s] %s" % (rel, self.line, self.rule, self.message)


def strip_comments_and_strings(text):
    """Replaces comment and string-literal contents with spaces, keeping
    line structure so reported line numbers stay accurate. Waiver comments
    are honored by inspecting the raw line separately."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # unterminated; keep line structure
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def expected_guard(path):
    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    parts = rel.split(os.sep)
    if parts and parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"[^A-Za-z0-9]", "_", stem)
    return "FEISU_" + stem.upper() + "_"


def is_arena_path(path):
    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    return "arena" in rel.replace(os.sep, "/").split("/")


def is_sim_clock_scoped_path(path):
    """Paths where the sim-clock rule applies: the cluster layer (master,
    scheduler, straggler detection, timeout bookkeeping) plus its seeded
    lint fixtures."""
    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    rel = rel.replace(os.sep, "/")
    return (rel.startswith("src/cluster/") or
            rel.startswith("tools/lint_fixtures/cluster/"))


def is_concurrency_exempt_path(path):
    """Paths allowed to touch raw std threading primitives: src/common/
    (the annotated wrappers and ThreadPool are implemented there) and
    tests/ (hammer tests spawn raw threads to exercise the wrappers)."""
    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    rel = rel.replace(os.sep, "/")
    return rel.startswith("src/common/") or rel.startswith("tests/")


def is_per_row_getvalue_scoped_path(path):
    """Paths where the per-row-getvalue rule applies: the hot operator
    layer and the expression evaluator, plus their seeded lint fixtures."""
    rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    rel = rel.replace(os.sep, "/")
    return rel.startswith(("src/exec/", "src/expr/",
                           "tools/lint_fixtures/exec/",
                           "tools/lint_fixtures/expr/"))


def find_getvalue_in_loops(code_lines):
    """Line numbers of GetValue() calls inside a for/while body. Brace
    depths of loop bodies are tracked line by line; a loop header whose
    body turns out to be brace-less stops matching at its first
    statement-terminating line (the repo style always braces loops, so
    this only has to fail conservatively)."""
    hits = []
    depth = 0
    loop_depths = []
    pending_loop = False
    for lineno, line in enumerate(code_lines, start=1):
        if LOOP_HEADER_RE.search(line):
            pending_loop = True
        if PER_ROW_GETVALUE_RE.search(line) and (loop_depths or pending_loop):
            hits.append(lineno)
        for ch in line:
            if ch == "{":
                depth += 1
                if pending_loop:
                    loop_depths.append(depth)
                    pending_loop = False
            elif ch == "}":
                if loop_depths and loop_depths[-1] == depth:
                    loop_depths.pop()
                depth -= 1
        if (pending_loop and "{" not in line and ";" in line and
                not LOOP_HEADER_RE.search(line)):
            pending_loop = False  # brace-less body ended
    return hits


def nolint_problem(raw_line, match):
    """Returns a complaint string when a NOLINT token is bare, wildcarded,
    or unjustified; None when it is well-formed (or a NOLINTEND)."""
    if match.group(1) == "END":
        return None
    rest = raw_line[match.end():]
    paren = re.match(r"\(([^)]*)\)", rest)
    if paren is None:
        return "names no check; every suppression must be NOLINT(check): why"
    checks = paren.group(1).strip()
    if not checks:
        return "has an empty check list; name the check being silenced"
    if "*" in checks:
        return "suppresses a wildcard check set; name the specific check"
    if re.match(r"\s*:\s*\S", rest[paren.end():]) is None:
        return "carries no justification; append `: <why this is OK here>`"
    return None


def lint_file(path, stale_waivers=True):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        raw = f.read()
    raw_lines = raw.split("\n")
    code_lines = strip_comments_and_strings(raw).split("\n")
    violations = []
    used_waivers = set()  # raw-line indices whose waiver suppressed a hit

    def waived(lineno, rule):
        # A waiver comment applies to its own line or to the line directly
        # below it (for sites where the comment would overflow the line).
        for idx in (lineno - 1, lineno - 2):
            if idx < 0:
                continue
            m = WAIVER_RE.search(raw_lines[idx])
            if m is not None and m.group(1) == rule:
                used_waivers.add(idx)
                return True
        return False

    for lineno, line in enumerate(code_lines, start=1):
        if VOID_CAST_CALL_RE.search(line) and not waived(lineno,
                                                        "void-cast-call"):
            violations.append(Violation(
                path, lineno, "void-cast-call",
                "discarding a call result with (void) hides failures; "
                "handle or propagate the Status/Result"))
        if not is_arena_path(path):
            if NAKED_NEW_RE.search(line) and not waived(lineno, "naked-new"):
                violations.append(Violation(
                    path, lineno, "naked-new",
                    "raw `new` outside arena code; use make_unique/"
                    "make_shared or a container"))
            if NAKED_DELETE_RE.search(line) and not waived(lineno,
                                                           "naked-new"):
                violations.append(Violation(
                    path, lineno, "naked-new",
                    "raw `delete` outside arena code; ownership must flow "
                    "through smart pointers"))
        for pattern in WALL_CLOCK_RES:
            if pattern.search(line) and not waived(lineno, "wall-clock"):
                violations.append(Violation(
                    path, lineno, "wall-clock",
                    "wall-clock/ambient randomness breaks simulation "
                    "determinism; use SimClock / the seeded Rng"))
                break
        for pattern in DIRECT_OUTPUT_RES:
            if pattern.search(line) and not waived(lineno, "direct-output"):
                violations.append(Violation(
                    path, lineno, "direct-output",
                    "direct console output from library code; use "
                    "common/logging.h"))
                break
        if not is_concurrency_exempt_path(path):
            if RAW_MUTEX_RE.search(line) and not waived(lineno, "raw-mutex"):
                violations.append(Violation(
                    path, lineno, "raw-mutex",
                    "raw std locking primitive is invisible to "
                    "-Wthread-safety; use the annotated wrappers in "
                    "common/annotations.h"))
            for pattern in THREAD_SPAWN_RES:
                if pattern.search(line) and not waived(lineno,
                                                       "detached-thread"):
                    violations.append(Violation(
                        path, lineno, "detached-thread",
                        "ad-hoc thread/async outside ThreadPool; route "
                        "host-level parallelism through common/"
                        "thread_pool.h so lifetimes are joined"))
                    break
        if is_sim_clock_scoped_path(path):
            for pattern in SIM_CLOCK_RES:
                if pattern.search(line) and not waived(lineno, "sim-clock"):
                    violations.append(Violation(
                        path, lineno, "sim-clock",
                        "cluster-layer code must keep time in SimTime "
                        "(SimClock); raw monotonic clocks "
                        "and sleeps make straggler detection and deadline "
                        "bookkeeping nondeterministic"))
                    break
        if NO_ANALYSIS_RE.search(line):
            # The macro's own #define (annotations.h) is not a use.
            stripped = line.lstrip()
            is_define = stripped.startswith("#")
            prev_code = code_lines[lineno - 2] if lineno >= 2 else ""
            is_continuation = prev_code.rstrip().endswith("\\")
            if not is_define and not is_continuation:
                has_comment = any(
                    marker in raw_lines[idx]
                    for idx in (lineno - 1, lineno - 2) if idx >= 0
                    for marker in ("//", "/*"))
                if not has_comment and not waived(lineno, "no-analysis"):
                    violations.append(Violation(
                        path, lineno, "no-analysis",
                        "FEISU_NO_THREAD_SAFETY_ANALYSIS without a "
                        "justification comment on this line or the line "
                        "above; say why the analysis is wrong here"))

    if is_per_row_getvalue_scoped_path(path):
        for lineno in find_getvalue_in_loops(code_lines):
            if not waived(lineno, "per-row-getvalue"):
                violations.append(Violation(
                    path, lineno, "per-row-getvalue",
                    "GetValue() inside a loop boxes every cell through a "
                    "Value variant; use the typed column accessors "
                    "(ints()/doubles()/strings()) or a batch kernel"))

    # NOLINT lives inside comments, so this rule reads the raw lines.
    for lineno, raw_line in enumerate(raw_lines, start=1):
        for m in NOLINT_TOKEN_RE.finditer(raw_line):
            problem = nolint_problem(raw_line, m)
            if problem is not None and not waived(lineno, "bare-nolint"):
                violations.append(Violation(
                    path, lineno, "bare-nolint",
                    "clang-tidy suppression " + problem))
                break

    if path.endswith((".h", ".hpp")):
        guard = None
        guard_line = 0
        for lineno, line in enumerate(code_lines, start=1):
            m = GUARD_IFNDEF_RE.match(line)
            if m:
                guard = m.group(1)
                guard_line = lineno
                break
        want = expected_guard(path)
        if guard is None:
            violations.append(Violation(
                path, 1, "include-guard",
                "missing include guard; expected " + want))
        elif guard != want and not waived(guard_line, "include-guard"):
            violations.append(Violation(
                path, guard_line, "include-guard",
                "guard %s does not match path; expected %s" % (guard, want)))

    # Stale-waiver sweep, last: every rule above has consulted waived() by
    # now, so any waiver comment that suppressed nothing is dead weight.
    if stale_waivers:
        for idx, raw_line in enumerate(raw_lines):
            m = WAIVER_RE.search(raw_line)
            if m is None:
                continue
            if m.group(1) not in KNOWN_RULES:
                violations.append(Violation(
                    path, idx + 1, "stale-waiver",
                    "waiver names unknown rule `%s`" % m.group(1)))
            elif idx not in used_waivers:
                violations.append(Violation(
                    path, idx + 1, "stale-waiver",
                    "waiver for `%s` no longer suppresses any finding; "
                    "delete it" % m.group(1)))
    return violations


def collect_files(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(os.path.join(root, name))
        elif os.path.isfile(p):
            files.append(p)
        else:
            print("feisu-lint: no such path: %s" % p, file=sys.stderr)
            sys.exit(2)
    return files


def git_changed_files():
    """Source files changed vs. HEAD (staged, unstaged, and untracked).
    Returns None when git is unavailable or this is not a checkout."""
    changed = set()
    cmds = [
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "diff", "--name-only", "--cached"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ]
    for cmd in cmds:
        try:
            out = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True,
                                 text=True, check=False)
        except OSError:
            return None
        if out.returncode != 0:
            return None
        for rel in out.stdout.splitlines():
            rel = rel.strip()
            if rel.endswith(SOURCE_EXTENSIONS):
                changed.add(os.path.abspath(os.path.join(REPO_ROOT, rel)))
    return changed


def run_self_test():
    """Every fixture must trip exactly its intended rule (encoded in the
    file name), proving the lint fails when it should."""
    expected = {
        "void_cast_discard.cc": "void-cast-call",
        "naked_new.cc": "naked-new",
        "wall_clock.cc": "wall-clock",
        "direct_cout.cc": "direct-output",
        "bad_include_guard.h": "include-guard",
        "raw_mutex.cc": "raw-mutex",
        "no_analysis_unjustified.cc": "no-analysis",
        "detached_thread.cc": "detached-thread",
        os.path.join("cluster", "chrono_scheduler.cc"): "sim-clock",
        "bare_nolint.cc": "bare-nolint",
        os.path.join("exec", "per_row_getvalue.cc"): "per-row-getvalue",
        os.path.join("expr", "per_row_getvalue.cc"): "per-row-getvalue",
        "stale_waiver.cc": "stale-waiver",
    }
    # Fixtures that must lint CLEAN: they contain would-be violations that
    # are properly waived, proving the waiver machinery works per rule.
    expected_clean = ["raw_mutex_waived.cc",
                      "nolint_justified.cc",
                      os.path.join("cluster", "sim_clock_waived.cc"),
                      os.path.join("exec", "per_row_getvalue_waived.cc")]
    failures = []
    for name, rule in sorted(expected.items()):
        path = os.path.join(FIXTURE_DIR, name)
        if not os.path.isfile(path):
            failures.append("missing fixture: " + name)
            continue
        rules_hit = {v.rule for v in lint_file(path)}
        if rule not in rules_hit:
            failures.append("fixture %s did not trip rule %s (hit: %s)" %
                            (name, rule, sorted(rules_hit) or "none"))
    for name in expected_clean:
        path = os.path.join(FIXTURE_DIR, name)
        if not os.path.isfile(path):
            failures.append("missing fixture: " + name)
            continue
        hits = lint_file(path)
        if hits:
            failures.append("waived fixture %s tripped: %s" %
                            (name, sorted({v.rule for v in hits})))
    if failures:
        for f in failures:
            print("feisu-lint self-test FAILED: " + f, file=sys.stderr)
        return 1
    print("feisu-lint self-test: %d fixtures tripped their rule, "
          "%d waived fixtures stayed clean" %
          (len(expected), len(expected_clean)))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: <repo>/src)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the seeded fixtures trip their rules")
    parser.add_argument("--changed-only", action="store_true",
                        help="lint only files changed vs. HEAD (staged, "
                             "unstaged, and untracked)")
    parser.add_argument("--no-stale-waivers", action="store_true",
                        help="skip reporting waiver comments that no "
                             "longer suppress any finding")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(run_self_test())

    paths = args.paths or [os.path.join(REPO_ROOT, "src")]
    files = collect_files(paths)
    if args.changed_only:
        changed = git_changed_files()
        if changed is None:
            print("feisu-lint: --changed-only needs a git checkout; "
                  "linting everything", file=sys.stderr)
        else:
            files = [f for f in files if os.path.abspath(f) in changed]
    violations = []
    for path in files:
        violations.extend(
            lint_file(path, stale_waivers=not args.no_stale_waivers))
    for v in violations:
        print(str(v))
    if violations:
        print("feisu-lint: %d violation(s)" % len(violations),
              file=sys.stderr)
        sys.exit(1)
    print("feisu-lint: clean")
    sys.exit(0)


if __name__ == "__main__":
    main()
