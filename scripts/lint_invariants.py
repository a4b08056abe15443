#!/usr/bin/env python3
"""SprintCon project-invariant linter (DESIGN.md section 11).

Enforces five SprintCon-specific correctness rules that generic
clang-tidy profiles cannot express:

  wall-clock  No wall-clock or ambient-randomness source reachable from
              the simulation / control / power / fault decision path
              (src/sim, src/control, src/power, src/fault, src/core,
              src/server, src/workload). Determinism — bit-identical
              sharded execution, golden traces, reproducible chaos
              sweeps — requires that every timestamp come from the
              SimClock and every random draw from a seeded Rng. The obs
              layer (src/obs) owns the only legal steady_clock epoch and
              is exempt, as is src/scenario and src/common, whose
              steady_clock uses are wall-time *measurement* around the
              simulation, never inputs to it.

  hot-alloc   No direct heap allocation (new / delete / malloc family /
              make_unique / make_shared) and no dynamic_cast in the body
              of a function marked SPRINTCON_HOT (the per-tick hot path:
              rig tick driver, structured-QP solve, SoA thermal kernel,
              recorder/event append). Amortized container growth against
              a pre-sized reservation is allowed; the rule targets the
              unconditional per-call allocations. The check is textual
              and per-body (not transitive through callees).

  fp-contract No explicit fused multiply-add (std::fma and friends) and
              no `#pragma STDC FP_CONTRACT` in the decision path (same
              directories as wall-clock). The build pins
              -ffp-contract=off so every a*b+c rounds twice on every
              target (DESIGN.md section 7.4); an explicit fma or a
              pragma that re-enables contraction would give FMA hosts
              different bits from the goldens.

  raw-unit    No `double` parameter whose name is a bare unit noun
              (seconds, watts, joules, watt_hours, wh) in a public
              header. Such a parameter names the unit but not the role
              and silently accepts any double; use the units.hpp strong
              types (units::Seconds, units::Watts, ...) or a
              role-suffixed name (dt_s, budget_w). src/common/units.hpp
              is the one legal raw-double conversion boundary and is
              exempt.

  tick-dispatch
              No `std::function` and no `virtual` under src/sim. The
              simulation core runs one fixed tick (scenario::Rig::step,
              bound as a plain function pointer) and one recorder fill
              per tick; type-erased or virtual dispatch there would bring
              back a run-time stage list that no run ever changes. Other
              layers (the facility's epoch callback in src/scenario, the
              recovery target interface) may use either.

Suppressions: a line containing `lint:allow(<rule-id>)` (in a comment)
is exempt from that rule, e.g.
    const auto t0 = std::chrono::steady_clock::now();  // lint:allow(wall-clock): profiling only

Corpus files under tests/lint/corpus declare their expected findings:
    // lint:treat-as(src/sim/fake.cpp)   — lint as if at this repo path
    // lint:expect(wall-clock)           — self-test asserts this fires
Run `lint_invariants.py --self-test tests/lint/corpus` to check the
linter against the corpus (every expected rule must fire, nothing else).

Exit codes: 0 clean, 1 violations (or self-test mismatch), 2 bad usage.

Implemented with a comment/string-stripping tokenizer rather than
libclang so it runs anywhere python3 does; the golden corpus keeps the
textual heuristics honest (see DESIGN.md section 11 for how to add a rule).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# Directories (relative to the repo root) whose code makes *decisions* —
# anything here must be deterministic given (config, seed).
DECISION_PATH_DIRS = (
    "src/sim/",
    "src/control/",
    "src/power/",
    "src/fault/",
    "src/core/",
    "src/server/",
    "src/workload/",
)

# The raw-unit rule's one legal boundary.
RAW_UNIT_EXEMPT = ("src/common/units.hpp",)

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\b"), "clock_gettime()"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"), "time()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:.>])rand\s*\("), "rand()"),
]

HOT_BANNED_PATTERNS = [
    (re.compile(r"\bnew\b"), "new-expression"),
    (re.compile(r"\bdelete\b"), "delete-expression"),
    (re.compile(r"\bmalloc\s*\("), "malloc()"),
    (re.compile(r"\bcalloc\s*\("), "calloc()"),
    (re.compile(r"\brealloc\s*\("), "realloc()"),
    (re.compile(r"(?<![\w:.>])free\s*\("), "free()"),
    (re.compile(r"\bdynamic_cast\b"), "dynamic_cast"),
    (re.compile(r"\bmake_unique\b"), "std::make_unique"),
    (re.compile(r"\bmake_shared\b"), "std::make_shared"),
]

FP_CONTRACT_PATTERNS = [
    (re.compile(r"(?<![\w.>])(?:std::)?fma[fl]?\s*\("), "fma()"),
    (re.compile(r"#\s*pragma\s+STDC\s+FP_CONTRACT\b"),
     "#pragma STDC FP_CONTRACT"),
]

RAW_UNIT_NAMES = ("seconds", "watts", "joules", "watt_hours", "wh")
RAW_UNIT_PATTERN = re.compile(
    r"[(,]\s*(?:const\s+)?double\s+(" + "|".join(RAW_UNIT_NAMES)
    + r")\s*(?=[,)=])")

ALLOW_DIRECTIVE = re.compile(r"lint:allow\(([a-z0-9_-]+)\)")
TREAT_AS_DIRECTIVE = re.compile(r"lint:treat-as\(([^)]+)\)")
EXPECT_DIRECTIVE = re.compile(r"lint:expect\(([a-z0-9_-]+)\)")

# The fixed-tick layer: no type-erased or virtual dispatch.
TICK_DISPATCH_DIRS = ("src/sim/",)

TICK_DISPATCH_PATTERNS = [
    (re.compile(r"\bstd::function\b"), "std::function"),
    (re.compile(r"\bvirtual\b"), "virtual"),
]

RULE_IDS = ("wall-clock", "hot-alloc", "fp-contract", "raw-unit",
            "tick-dispatch")


@dataclass
class Violation:
    path: str
    line: int
    rule: str
    message: str


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literal *contents*, preserving
    every newline so line numbers survive. Handles //, /* */, "..",
    '..', and R"delim(..)delim" raw strings."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
            out.append(" ")
        elif c == "R" and nxt == '"' and (i == 0
                                          or not text[i - 1].isalnum()):
            j = i + 2
            while j < n and text[j] != "(":
                j += 1
            delim = text[i + 2:j]
            close = ")" + delim + '"'
            end = text.find(close, j)
            end = n if end < 0 else end + len(close)
            out.append('""')
            out.extend("\n" for ch in text[i:end] if ch == "\n")
            i = end
        elif c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":  # unterminated; bail at line end
                    break
                i += 1
            out.append(quote)
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def collect_directives(text: str):
    """Per-line lint:allow rules, and the optional treat-as path."""
    allows: dict[int, set[str]] = {}
    treat_as = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in ALLOW_DIRECTIVE.finditer(line):
            allows.setdefault(lineno, set()).add(m.group(1))
        m = TREAT_AS_DIRECTIVE.search(line)
        if m:
            treat_as = m.group(1).strip()
    return allows, treat_as


def hot_function_bodies(stripped: str):
    """Yield (start_pos, body_text) for every SPRINTCON_HOT definition.
    A marker followed by `;` before any `{` is a declaration — skipped,
    as is the `#define SPRINTCON_HOT ...` line itself."""
    for m in re.finditer(r"\bSPRINTCON_HOT\b", stripped):
        line_start = stripped.rfind("\n", 0, m.start()) + 1
        if stripped[line_start:m.start()].lstrip().startswith("#"):
            continue  # the macro definition, not a marked function
        i = m.end()
        depth_paren = 0
        body_start = -1
        while i < len(stripped):
            c = stripped[i]
            if c == "(":
                depth_paren += 1
            elif c == ")":
                depth_paren -= 1
            elif c == ";" and depth_paren == 0:
                break  # declaration only
            elif c == "{" and depth_paren == 0:
                body_start = i
                break
            i += 1
        if body_start < 0:
            continue
        depth = 0
        j = body_start
        while j < len(stripped):
            if stripped[j] == "{":
                depth += 1
            elif stripped[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        yield body_start, stripped[body_start:j + 1]


def lint_file(path: str, rel_path: str, text: str) -> list[Violation]:
    allows, treat_as = collect_directives(text)
    effective = (treat_as or rel_path).replace(os.sep, "/")
    stripped = strip_comments_and_strings(text)
    violations: list[Violation] = []

    def add(rule: str, pos: int, message: str):
        line = line_of(stripped, pos)
        if rule in allows.get(line, ()):  # suppressed in a comment
            return
        violations.append(Violation(rel_path, line, rule, message))

    if any(effective.startswith(d) for d in DECISION_PATH_DIRS):
        for pattern, what in WALL_CLOCK_PATTERNS:
            for m in pattern.finditer(stripped):
                add("wall-clock", m.start(),
                    f"{what} in the decision path ({effective}); use the "
                    "SimClock / a seeded Rng (only src/obs may read wall "
                    "time)")
        for pattern, what in FP_CONTRACT_PATTERNS:
            for m in pattern.finditer(stripped):
                add("fp-contract", m.start(),
                    f"{what} in the decision path ({effective}); the "
                    "build pins -ffp-contract=off so results do not "
                    "depend on the target's FMA (write a*b + c)")

    if any(effective.startswith(d) for d in TICK_DISPATCH_DIRS):
        for pattern, what in TICK_DISPATCH_PATTERNS:
            for m in pattern.finditer(stripped):
                add("tick-dispatch", m.start(),
                    f"{what} in the fixed-tick layer ({effective}); bind "
                    "the tick and the recorder fill once as plain function "
                    "pointers")

    for body_start, body in hot_function_bodies(stripped):
        for pattern, what in HOT_BANNED_PATTERNS:
            for m in pattern.finditer(body):
                add("hot-alloc", body_start + m.start(),
                    f"{what} in a SPRINTCON_HOT function; the tick path "
                    "must not allocate or downcast (hoist to construction "
                    "/ wiring time)")

    if (effective.endswith((".hpp", ".h"))
            and effective not in RAW_UNIT_EXEMPT):
        for m in RAW_UNIT_PATTERN.finditer(stripped):
            add("raw-unit", m.start(),
                f"raw `double {m.group(1)}` parameter; use the units.hpp "
                "strong types (units::Seconds, units::Watts, ...) or a "
                "role-suffixed name like dt_s / budget_w")

    return violations


def iter_source_files(root: str, paths: list[str]):
    for p in paths:
        absolute = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(absolute):
            yield absolute, os.path.relpath(absolute, root)
            continue
        for dirpath, _dirnames, filenames in os.walk(absolute):
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".h", ".cc")):
                    full = os.path.join(dirpath, name)
                    yield full, os.path.relpath(full, root)


def run_lint(root: str, paths: list[str]) -> int:
    total = 0
    files = 0
    for full, rel in iter_source_files(root, paths):
        with open(full, encoding="utf-8", errors="replace") as f:
            text = f.read()
        files += 1
        for v in lint_file(full, rel, text):
            total += 1
            print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")
    if total:
        print(f"lint_invariants: {total} violation(s) in {files} file(s)",
              file=sys.stderr)
        return 1
    print(f"lint_invariants: OK ({files} files clean)")
    return 0


def run_self_test(corpus_dir: str) -> int:
    """Every corpus file must fire exactly its lint:expect()ed rules."""
    failures = 0
    checked = 0
    for dirpath, _dirnames, filenames in os.walk(corpus_dir):
        for name in sorted(filenames):
            if not name.endswith((".cpp", ".hpp", ".h", ".cc")):
                continue
            full = os.path.join(dirpath, name)
            with open(full, encoding="utf-8", errors="replace") as f:
                text = f.read()
            expected = set(EXPECT_DIRECTIVE.findall(text))
            unknown = expected - set(RULE_IDS)
            if unknown:
                print(f"SELF-TEST ERROR {name}: unknown rule id(s) "
                      f"{sorted(unknown)}", file=sys.stderr)
                failures += 1
                continue
            fired = {v.rule for v in lint_file(full, name, text)}
            checked += 1
            if fired != expected:
                failures += 1
                print(f"SELF-TEST FAIL {name}: expected "
                      f"{sorted(expected) or '[]'}, fired "
                      f"{sorted(fired) or '[]'}", file=sys.stderr)
    if checked == 0:
        print(f"SELF-TEST ERROR: no corpus files under {corpus_dir}",
              file=sys.stderr)
        return 2
    if failures:
        print(f"lint_invariants self-test: {failures}/{checked} corpus "
              "file(s) FAILED", file=sys.stderr)
        return 1
    print(f"lint_invariants self-test: OK ({checked} corpus files)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="SprintCon project-invariant linter (DESIGN.md sec. 11)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint "
                             "(default: src, relative to --root)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: the parent of this "
                             "script's directory)")
    parser.add_argument("--self-test", metavar="CORPUS_DIR",
                        help="run the golden-corpus self-test instead of "
                             "linting")
    args = parser.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        corpus = (args.self_test if os.path.isabs(args.self_test)
                  else os.path.join(root, args.self_test))
        if not os.path.isdir(corpus):
            print(f"no such corpus dir: {corpus}", file=sys.stderr)
            return 2
        return run_self_test(corpus)

    paths = args.paths or ["src"]
    for p in paths:
        absolute = p if os.path.isabs(p) else os.path.join(root, p)
        if not os.path.exists(absolute):
            print(f"no such path: {absolute}", file=sys.stderr)
            return 2
    return run_lint(root, paths)


if __name__ == "__main__":
    sys.exit(main())
