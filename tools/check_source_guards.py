#!/usr/bin/env python3
"""Source-layout guards, grep-enforced (ctest label: static).

Three rules that types alone cannot enforce:

1. no-direct-statevector — outside the statevector SimState implementation
   itself, the engine and gate-backend layers construct simulation state only
   through sim::make_sim_state.  `Engine::run_statevector` is the one
   sanctioned dense accessor (it downcasts the factory's product), so its
   declaration is carved out by name.  Promoted from the former
   CrossEngine.EngineAndGateBackendConstructNoStatevectorDirectly GTest so the
   guard runs without compiling anything.

2. no-raw-mutex — all locking in src/ goes through the annotated wrappers in
   util/sync.hpp (quml::Mutex / MutexLock / CondVar ...), never raw
   std::mutex / std::lock_guard / std::condition_variable & co.  That keeps
   Clang thread-safety analysis authoritative: a raw primitive would be
   invisible to QUML_GUARDED_BY.  std::once_flag / std::call_once are allowed
   (annotation-free by design).  `//` comments are stripped first —
   thread_annotations.hpp legitimately *talks about* std::mutex.

3. rate-counters-use-real-time — a Google Benchmark counter flagged
   `benchmark::Counter::kIsRate` or `kIsIterationInvariantRate` (a rate
   too: the value times the iteration count) is divided by the benchmark's
   CPU time
   unless the benchmark is registered with `->UseRealTime()`; for work that
   runs on service or OpenMP threads the main thread's CPU time is a sliver
   of the wall time, so the "rate" is inflated.  Every benchmark in bench/
   that sets such a counter, directly or through a helper it calls, must
   carry `->UseRealTime()` in its BENCHMARK(...) registration.

Exit status is the number of violations.  Usage:

    python3 tools/check_source_guards.py [repo_root]
"""

import re
import sys
from pathlib import Path

STATEVECTOR_FILES = [
    "src/sim/engine.hpp",
    "src/sim/engine.cpp",
    "src/backend/gate_backend.hpp",
    "src/backend/gate_backend.cpp",
]
STATEVECTOR_FORBIDDEN = ["make_unique<Statevector", "new Statevector", "Statevector{"]
# Stack/temporary construction: `Statevector name(...)`, `Statevector name =`.
STATEVECTOR_CONSTRUCTION = re.compile(
    r"\bStatevector\s+(?!run_statevector\b)[A-Za-z_]\w*\s*[({=]"
)

RAW_SYNC = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|shared_timed_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|condition_variable|"
    r"condition_variable_any)\b"
)
SYNC_EXEMPT = Path("src/util/sync.hpp")

RATE_FLAG = re.compile(r"\b(kIsRate|kIsIterationInvariantRate)\b")
REGISTRATION = re.compile(r"\bBENCHMARK\s*\(\s*(\w+)\s*\)([^;]*);")
STRING_LITERAL = re.compile(r'R"(\w*)\(.*?\)\1"|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])+\'',
                            re.S)


def strip_line_comment(line: str) -> str:
    """Drops a trailing // comment; good enough for these sources, which keep
    string literals and comment markers off the same line for sync names."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def check_statevector(root: Path) -> list[str]:
    violations = []
    for rel in STATEVECTOR_FILES:
        path = root / rel
        if not path.is_file():
            violations.append(f"{rel}: guarded file missing")
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if any(pat in line for pat in STATEVECTOR_FORBIDDEN) or \
                    STATEVECTOR_CONSTRUCTION.search(line):
                violations.append(
                    f"{rel}:{lineno}: direct Statevector construction "
                    f"(use sim::make_sim_state): {line.strip()}")
    return violations


def check_raw_mutex(root: Path) -> list[str]:
    violations = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in {".hpp", ".cpp", ".h", ".cc"}:
            continue
        rel = path.relative_to(root)
        if rel == SYNC_EXEMPT:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            match = RAW_SYNC.search(strip_line_comment(line))
            if match:
                violations.append(
                    f"{rel}:{lineno}: raw {match.group(0)} outside util/sync.hpp "
                    f"(use quml::Mutex/MutexLock/CondVar): {line.strip()}")
    return violations


def strip_code(text: str) -> str:
    """Blanks string/char literals and // comments, keeping line structure,
    so braces and identifiers inside them are not parsed as code."""
    text = STRING_LITERAL.sub(lambda m: '""' + "\n" * m.group(0).count("\n"), text)
    return "\n".join(strip_line_comment(line) for line in text.split("\n"))


def top_level_functions(code: str) -> dict[str, str]:
    """Maps each function defined at namespace scope to its body text."""
    functions: dict[str, str] = {}
    stack: list[str] = []  # "ns" or "block" per open brace
    header_start = 0
    body_start = 0
    name = None
    for i, ch in enumerate(code):
        if ch == "{":
            if all(kind == "ns" for kind in stack):
                header = code[header_start:i]
                if re.search(r"\bnamespace\b", header):
                    stack.append("ns")
                    header_start = i + 1
                    continue
                match = re.search(r"(\w+)\s*\(", header)
                name = match.group(1) if match else None
                body_start = i
            stack.append("block")
        elif ch == "}":
            if stack:
                stack.pop()
            if all(kind == "ns" for kind in stack):
                if name is not None:
                    functions[name] = code[body_start:i + 1]
                    name = None
                header_start = i + 1
        elif ch == ";" and all(kind == "ns" for kind in stack):
            header_start = i + 1
    return functions


def check_rate_counters(root: Path) -> list[str]:
    violations = []
    for path in sorted((root / "bench").glob("*.cpp")):
        rel = path.relative_to(root)
        code = strip_code(path.read_text())
        functions = top_level_functions(code)
        # Functions that set a rate counter, then everything calling them.
        reaches = {name for name, body in functions.items() if RATE_FLAG.search(body)}
        grew = True
        while grew:
            grew = False
            for name, body in functions.items():
                if name in reaches:
                    continue
                if any(re.search(rf"\b{callee}\s*\(", body) for callee in reaches):
                    reaches.add(name)
                    grew = True
        for match in REGISTRATION.finditer(code):
            bench, chain = match.group(1), match.group(2)
            if bench in reaches and not re.search(r"->\s*UseRealTime\s*\(", chain):
                lineno = code.count("\n", 0, match.start()) + 1
                violations.append(
                    f"{rel}:{lineno}: {bench} sets a rate counter but is not "
                    f"registered with ->UseRealTime() (the rate would divide by "
                    f"CPU time)")
    return violations


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"check_source_guards: no src/ under {root}", file=sys.stderr)
        return 1
    violations = check_statevector(root) + check_raw_mutex(root) + check_rate_counters(root)
    for v in violations:
        print(v)
    if violations:
        print(f"check_source_guards: {len(violations)} violation(s)")
    else:
        print("check_source_guards: ok "
              f"(no-direct-statevector on {len(STATEVECTOR_FILES)} files, "
              "no-raw-mutex across src/, rate-counters-use-real-time across bench/)")
    return len(violations)


if __name__ == "__main__":
    sys.exit(main())
