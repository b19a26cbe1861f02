#!/usr/bin/env python3
"""rota_lint: mechanical repo-specific rules for the rota source tree.

Run from the repository root (the `lint` CMake/CI target does):

    python3 tools/rota_lint.py [--root DIR]

Rules enforced (each can be suppressed on a specific line with a trailing
`// rota-lint: allow(<rule>)` comment):

  rng          No rand()/srand()/std::mt19937/std::random_device or other
               unseeded/non-deterministic RNG outside src/util/rng.hpp.
               Simulation results must be bit-reproducible per seed.
  float-wear   No `float` anywhere in src/wear/: wear accumulators are
               int64 (counts) or double (derived ratios); 24-bit float
               mantissas silently lose allocation counts.
  pragma-once  Every header's first line is `#pragma once`.
  pre-require  Every function whose doc comment documents a `\\pre`
               contract carries a ROTA_REQUIRE in its definition (found in
               the header itself or the paired .cpp). Pure-virtual
               declarations are exempt (the contract binds overriders).
  log-discipline
               No bare std::cout/std::cerr/std::clog/printf in src/
               library code: libraries report through the structured
               obs::EventLog (or metrics / traces / returned strings);
               only the process entry point (src/cli/main.cpp) and the
               obs terminal sinks (progress, the EventLog stderr echo)
               talk to the process-global streams.
  determinism  Serialized results must be a pure function of the inputs
               and the seed. Three sub-checks: (a) no wall-clock reads
               (system_clock, time(), gettimeofday, gmtime/localtime)
               outside src/obs/manifest.cpp — the one place run metadata
               legitimately records the time of day; (b) no range-for
               over a std::unordered_{map,set} declared in the same file —
               iteration order varies across libstdc++ versions and seeds,
               so anything it feeds (output, accumulation into floats,
               schedules) can drift; iterate sorted keys instead; (c) no
               std::map/std::set keyed on a pointer or uintptr_t —
               address-based ordering changes run to run under ASLR.
  signal-safety
               Bodies of functions registered as signal handlers (via
               `sa_handler =` or `signal(SIG…, f)`) may only call the
               async-signal-safe whitelist: _exit/_Exit/abort/raise/kill/
               signal/write plus lock-free std::atomic member functions.
               Everything else (malloc, iostreams, mutexes, even fprintf)
               can deadlock or corrupt state when the signal lands inside
               the allocator or a locked region.
  simd-isolation
               No vendor intrinsics header (`<immintrin.h>`, x86intrin,
               arm_neon, ...) outside src/kern/. All SIMD lives behind
               the dispatched rota::kern batch API, so the scalar/AVX2
               bit-identity contract (DESIGN.md §14) is testable and
               enforced in exactly one place.

Header self-containment is checked by the CMake `rota_header_checks`
target, which compiles every src/ header as a standalone TU. Clang's
-Wthread-safety (the `thread-safety` CMake preset) covers lock
discipline; this linter covers what the type system cannot see.

With `--compile-db PATH` (a compile_commands.json), only .cpp files that
appear in the database are scanned — headers are always scanned — so the
lint run matches what the build actually compiles.

Exit status: 0 when clean, 1 when any rule fires, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SCAN_DIRS = ("src", "bench", "tests", "examples", "tools")
CPP_SUFFIXES = {".cpp", ".hpp"}

RNG_PATTERN = re.compile(
    r"\b(?:std::)?(?:rand|srand|rand_r|drand48|mt19937(?:_64)?|"
    r"random_device|default_random_engine|minstd_rand0?|knuth_b)\b"
)
FLOAT_PATTERN = re.compile(r"\bfloat\b")
LOG_PATTERN = re.compile(
    r"\bstd::(?:cout|cerr|clog)\b|\b(?:f?printf|puts|fputs)\s*\(")
# Only the process entry point (main.cpp's fatal-error reporting) and the
# two obs sinks whose whole job is terminal rendering (the TTY progress
# line, the EventLog stderr echo) may touch the global streams. Everything
# else — including the rest of src/cli — reports through obs::EventLog /
# metrics / a caller-supplied std::ostream.
LOG_ALLOWED = (
    Path("src") / "cli" / "main.cpp",
    Path("src") / "obs" / "progress.cpp",
    Path("src") / "obs" / "event_log.cpp",
)
ALLOW_PATTERN = re.compile(r"//\s*rota-lint:\s*allow\(([a-z-]+)\)")
PRE_TAG = re.compile(r"[\\@]pre\b")
FUNC_NAME = re.compile(r"([A-Za-z_]\w*)\s*\(")

# --- determinism rule ---------------------------------------------------
WALL_CLOCK_PATTERN = re.compile(
    r"\bsystem_clock\b|\bgettimeofday\s*\(|\bclock_gettime\s*\(|"
    r"\btime\s*\(\s*(?:nullptr|NULL|0\s*\))|"
    r"\b(?:localtime|gmtime)(?:_r|_s)?\s*\(|\bstrftime\s*\(")
# The run manifest is the one artifact whose job is recording the time of
# day; everything else must stay a pure function of inputs and seed.
WALL_CLOCK_ALLOWED = (Path("src") / "obs" / "manifest.cpp",)
UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR = re.compile(r"\bfor\s*\([^();]*:\s*([^();]+)\)")
PTR_KEYED_PATTERN = re.compile(
    r"\bstd::(?:map|set)\s*<\s*(?:const\s+)?"
    r"(?:[A-Za-z_][\w:]*(?:<[^<>]*>)?\s*\*|(?:std::)?uintptr_t\b)")

# --- signal-safety rule -------------------------------------------------
HANDLER_REG = re.compile(
    r"\bsa_handler\s*=\s*&?\s*([A-Za-z_]\w*)|"
    r"\bsignal\s*\(\s*SIG\w+\s*,\s*&?\s*([A-Za-z_]\w*)\s*\)")
# POSIX async-signal-safe calls this codebase has a use for, plus the
# member functions of lock-free std::atomic (safe by [support.signal]).
SIGNAL_SAFE_CALLS = frozenset({
    "_exit", "_Exit", "abort", "raise", "kill", "signal", "write",
    "exchange", "store", "load", "fetch_add", "fetch_sub", "fetch_or",
    "fetch_and", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong", "test_and_set", "clear",
})
# Keywords and functional-cast type names `(\w+)\s*\(` also matches.
SIGNAL_SAFE_KEYWORDS = frozenset({
    "if", "while", "for", "switch", "return", "sizeof", "alignof",
    "defined", "int", "long", "short", "unsigned", "signed", "bool",
    "char", "void", "auto", "decltype", "static_assert",
})

# --- simd-isolation rule ------------------------------------------------
# Vendor intrinsics headers: immintrin.h and friends (xmmintrin, emmintrin,
# avxintrin, x86intrin, arm_neon, ...). Everything outside src/kern/ must
# go through the dispatched rota::kern batch API so the scalar/AVX2
# bit-identity contract stays enforceable in one place.
INCLUDE_LINE = re.compile(r"^\s*#\s*include\b")
INTRIN_INCLUDE = re.compile(
    r'^\s*#\s*include\s*[<"](?:\w*intrin|arm_neon|arm_sve)\.h[>"]')


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines so
    line numbers survive. Good enough for the token-level rules here."""
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (j - i - 1) + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Linter:
    def __init__(self, root: Path, compile_db: set[Path] | None = None):
        self.root = root
        self.compile_db = compile_db
        self.failures: list[str] = []

    def fail(self, path: Path, line: int, rule: str, msg: str) -> None:
        rel = path.relative_to(self.root)
        self.failures.append(f"{rel}:{line}: [{rule}] {msg}")

    def allowed(self, raw_lines: list[str], lineno: int, rule: str) -> bool:
        if lineno - 1 >= len(raw_lines):
            return False
        m = ALLOW_PATTERN.search(raw_lines[lineno - 1])
        return bool(m) and m.group(1) == rule

    # ------------------------------------------------------------- rules --

    def check_rng(self, path: Path, stripped: str, raw: list[str]) -> None:
        if path == self.root / "src" / "util" / "rng.hpp":
            return
        for lineno, line in enumerate(stripped.splitlines(), 1):
            if RNG_PATTERN.search(line) and not self.allowed(raw, lineno, "rng"):
                self.fail(path, lineno, "rng",
                          "non-deterministic/unseeded RNG; use "
                          "rota::util::SplitMix64 (src/util/rng.hpp)")

    def check_float_wear(self, path: Path, stripped: str,
                         raw: list[str]) -> None:
        if self.root / "src" / "wear" not in path.parents:
            return
        for lineno, line in enumerate(stripped.splitlines(), 1):
            if FLOAT_PATTERN.search(line) and not self.allowed(
                    raw, lineno, "float-wear"):
                self.fail(path, lineno, "float-wear",
                          "float in wear accounting; use std::int64_t for "
                          "counters or double for derived ratios")

    def check_log_discipline(self, path: Path, stripped: str,
                             raw: list[str]) -> None:
        if self.root / "src" not in path.parents:
            return
        rel = path.relative_to(self.root)
        for prefix in LOG_ALLOWED:
            if rel == prefix or prefix in rel.parents:
                return
        for lineno, line in enumerate(stripped.splitlines(), 1):
            if LOG_PATTERN.search(line) and not self.allowed(
                    raw, lineno, "log-discipline"):
                self.fail(path, lineno, "log-discipline",
                          "library code must not write to global streams; "
                          "report via rota::obs or a caller-supplied "
                          "std::ostream")

    def check_determinism(self, path: Path, stripped: str,
                          raw: list[str]) -> None:
        """Wall-clock reads, unordered-container iteration and
        address-keyed ordering all make output depend on something other
        than the inputs and the seed."""
        rel = path.relative_to(self.root)
        unordered = self._unordered_names(stripped)
        for lineno, line in enumerate(stripped.splitlines(), 1):
            if self.allowed(raw, lineno, "determinism"):
                continue
            if rel not in WALL_CLOCK_ALLOWED and WALL_CLOCK_PATTERN.search(
                    line):
                self.fail(path, lineno, "determinism",
                          "wall-clock read; results must be a pure "
                          "function of inputs and seed (run metadata "
                          "belongs in obs/manifest.cpp)")
            for m in RANGE_FOR.finditer(line):
                idents = re.findall(r"[A-Za-z_]\w*", m.group(1))
                if idents and idents[-1] in unordered:
                    self.fail(path, lineno, "determinism",
                              f"range-for over unordered container "
                              f"`{idents[-1]}`; iteration order is not "
                              "deterministic — iterate sorted keys (or "
                              "copy out and sort) before anything "
                              "order-sensitive")
            if PTR_KEYED_PATTERN.search(line):
                self.fail(path, lineno, "determinism",
                          "std::map/std::set keyed on an address; "
                          "pointer order changes run to run under ASLR "
                          "— key on a stable id instead")

    def check_signal_safety(self, path: Path, stripped: str,
                            raw: list[str]) -> None:
        """Registered signal handlers may only call the async-signal-safe
        whitelist (POSIX set + lock-free atomic members)."""
        handlers = set()
        for m in HANDLER_REG.finditer(stripped):
            name = m.group(1) or m.group(2)
            if name not in ("SIG_IGN", "SIG_DFL"):
                handlers.add(name)
        for name in sorted(handlers):
            span = self._find_body_span(stripped, name)
            if span is None:
                continue  # defined elsewhere; its own file is checked
            body, body_line = span
            for lineno, line in enumerate(body.splitlines(), body_line):
                for call in re.finditer(r"([A-Za-z_]\w*)\s*\(", line):
                    ident = call.group(1)
                    if (ident in SIGNAL_SAFE_CALLS
                            or ident in SIGNAL_SAFE_KEYWORDS):
                        continue
                    if self.allowed(raw, lineno, "signal-safety"):
                        continue
                    self.fail(path, lineno, "signal-safety",
                              f"`{ident}` called inside signal handler "
                              f"`{name}` is not async-signal-safe; "
                              "handlers may only touch lock-free "
                              "atomics and the _exit/raise/write set")

    def check_simd_isolation(self, path: Path, stripped: str,
                             raw: list[str]) -> None:
        """SIMD intrinsics live in src/kern/ only; everywhere else uses
        the dispatched batch kernels (DESIGN.md §14)."""
        if self.root / "src" / "kern" in path.parents:
            return
        # The stripped text blanks quoted-form includes (they look like
        # string literals), so gate on the stripped line being a real
        # include directive and match the header name on the raw line.
        for lineno, line in enumerate(stripped.splitlines(), 1):
            if not INCLUDE_LINE.match(line):
                continue
            if INTRIN_INCLUDE.match(raw[lineno - 1]) and not self.allowed(
                    raw, lineno, "simd-isolation"):
                self.fail(path, lineno, "simd-isolation",
                          "vendor intrinsics header included outside "
                          "src/kern/; use the rota::kern batch API so the "
                          "scalar/SIMD bit-identity contract is enforced "
                          "in one place")

    def check_pragma_once(self, path: Path, raw: list[str]) -> None:
        if path.suffix != ".hpp":
            return
        first = raw[0].strip() if raw else ""
        if first != "#pragma once":
            self.fail(path, 1, "pragma-once",
                      "header must start with `#pragma once`")

    def check_pre_require(self, path: Path, text: str, stripped: str,
                          raw: list[str]) -> None:
        """Each \\pre-documented declaration must have ROTA_REQUIRE in its
        definition (inline in the header or in the paired .cpp)."""
        if path.suffix != ".hpp":
            return
        lines = text.splitlines()
        for lineno, line in enumerate(lines, 1):
            if not PRE_TAG.search(line):
                continue
            if "///" not in line and "*" not in line.lstrip()[:2]:
                continue  # \pre outside a doc comment
            decl, decl_line = self._declaration_after(lines, lineno)
            if decl is None:
                self.fail(path, lineno, "pre-require",
                          "could not find the declaration this \\pre "
                          "documents")
                continue
            if re.search(r"=\s*0\s*;", decl):
                continue  # pure virtual: contract binds the overriders
            m = FUNC_NAME.search(decl)
            if not m:
                self.fail(path, decl_line, "pre-require",
                          "\\pre is not attached to a function declaration")
                continue
            name = m.group(1)
            if self.allowed(raw, decl_line, "pre-require"):
                continue
            if not self._definition_has_require(path, name):
                self.fail(path, decl_line, "pre-require",
                          f"`{name}` documents a \\pre but its definition "
                          "has no ROTA_REQUIRE")

    # ----------------------------------------------------------- helpers --

    @staticmethod
    def _declaration_after(lines: list[str],
                           lineno: int) -> tuple[str | None, int]:
        """The declaration is the doc comment's own line (trailing \\pre) or
        the first non-comment lines after the comment block, joined until a
        `;` or `{`."""
        inline = re.sub(r"///.*$|/\*.*?\*/", "", lines[lineno - 1]).strip()
        if FUNC_NAME.search(inline):
            return inline, lineno
        decl: list[str] = []
        start = 0
        for j in range(lineno, min(lineno + 12, len(lines))):
            s = lines[j].strip()
            if not decl and (s.startswith("///") or s.startswith("*")
                             or s.startswith("//") or not s):
                continue
            decl.append(s)
            start = start or j + 1
            if s.endswith((";", "{")) or "{" in s:
                return " ".join(decl), start
        return (None, lineno) if not decl else (" ".join(decl), start)

    def _definition_has_require(self, header: Path, name: str) -> bool:
        candidates = [header, header.with_suffix(".cpp")]
        candidates += sorted(p for p in header.parent.glob("*.cpp")
                             if p not in candidates)
        for src in candidates:
            if not src.exists():
                continue
            body = self._find_body(src.read_text(encoding="utf-8"), name)
            if body is None:
                continue
            # Direct check, or delegation to a local validate*() helper
            # (idiom used by rwl_math.cpp and monte_carlo.cpp).
            return bool(re.search(r"ROTA_REQUIRE|\bvalidate\w*\s*\(", body))
        return False  # no definition found anywhere we can see

    @staticmethod
    def _unordered_names(stripped: str) -> set[str]:
        """Identifiers declared in this file with an unordered container
        type (members, locals, parameters)."""
        names: set[str] = set()
        for m in UNORDERED_DECL.finditer(stripped):
            depth, i = 1, stripped.find("<", m.start()) + 1
            while i < len(stripped) and depth:
                if stripped[i] == "<":
                    depth += 1
                elif stripped[i] == ">":
                    depth -= 1
                i += 1
            dm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)", stripped[i:i + 160])
            if dm and dm.group(1) not in ("const", "constexpr"):
                names.add(dm.group(1))
        return names

    @staticmethod
    def _find_body_span(text: str, name: str) -> tuple[str, int] | None:
        """Like _find_body, but also returns the 1-based line of the
        opening brace (for per-line diagnostics)."""
        for m in re.finditer(r"\b%s\s*\(" % re.escape(name), text):
            depth, i = 1, m.end()
            while i < len(text) and depth:
                if text[i] == "(":
                    depth += 1
                elif text[i] == ")":
                    depth -= 1
                i += 1
            j = i
            while j < len(text) and text[j] not in ";{":
                j += 1
            if j >= len(text) or text[j] == ";":
                continue
            depth, k = 1, j + 1
            while k < len(text) and depth:
                if text[k] == "{":
                    depth += 1
                elif text[k] == "}":
                    depth -= 1
                k += 1
            return text[j:k], text.count("\n", 0, j) + 1
        return None

    @staticmethod
    def _find_body(text: str, name: str) -> str | None:
        """Brace-matched body of the first definition of `name` (skips
        declarations, which end in `;` before any `{`)."""
        for m in re.finditer(r"\b%s\s*\(" % re.escape(name), text):
            depth, i = 1, m.end()
            while i < len(text) and depth:
                if text[i] == "(":
                    depth += 1
                elif text[i] == ")":
                    depth -= 1
                i += 1
            # Scan past cv-qualifiers/noexcept/initializer list to `;` or `{`.
            j = i
            while j < len(text) and text[j] not in ";{":
                j += 1
            if j >= len(text) or text[j] == ";":
                continue
            depth, k = 1, j + 1
            while k < len(text) and depth:
                if text[k] == "{":
                    depth += 1
                elif text[k] == "}":
                    depth -= 1
                k += 1
            return text[j:k]
        return None

    # -------------------------------------------------------------- run --

    def run(self) -> int:
        files = []
        for d in SCAN_DIRS:
            base = self.root / d
            if base.is_dir():
                files += sorted(p for p in base.rglob("*")
                                if p.suffix in CPP_SUFFIXES)
        if not files:
            print("rota_lint: no sources found — wrong --root?",
                  file=sys.stderr)
            return 2
        if self.compile_db is not None:
            # Headers are always scanned (the DB never lists them); .cpp
            # files are restricted to what the build actually compiles.
            files = [p for p in files
                     if p.suffix != ".cpp" or p.resolve() in self.compile_db]
        for path in files:
            text = path.read_text(encoding="utf-8")
            raw = text.splitlines()
            stripped = strip_comments_and_strings(text)
            self.check_rng(path, stripped, raw)
            self.check_float_wear(path, stripped, raw)
            self.check_log_discipline(path, stripped, raw)
            self.check_determinism(path, stripped, raw)
            self.check_signal_safety(path, stripped, raw)
            self.check_simd_isolation(path, stripped, raw)
            self.check_pragma_once(path, raw)
            self.check_pre_require(path, text, stripped, raw)
        if self.failures:
            print("\n".join(self.failures))
            print(f"rota_lint: {len(self.failures)} failure(s) in "
                  f"{len(files)} files", file=sys.stderr)
            return 1
        print(f"rota_lint: OK ({len(files)} files)")
        return 0


def load_compile_db(path: Path) -> set[Path]:
    """Absolute paths of every .cpp a compile_commands.json compiles."""
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"rota_lint: cannot read compile db {path}: {err}")
    files: set[Path] = set()
    for entry in entries:
        f = Path(entry["file"])
        if not f.is_absolute():
            f = Path(entry.get("directory", ".")) / f
        files.add(f.resolve())
    return files


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).parent.parent,
                    help="repository root (default: parent of tools/)")
    ap.add_argument("--compile-db", type=Path, default=None, metavar="PATH",
                    help="compile_commands.json; restricts .cpp scanning to "
                         "files the build compiles (headers always scanned)")
    args = ap.parse_args()
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"rota_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    db = load_compile_db(args.compile_db) if args.compile_db else None
    return Linter(root, db).run()


if __name__ == "__main__":
    sys.exit(main())
