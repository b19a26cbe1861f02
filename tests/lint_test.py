#!/usr/bin/env python3
"""Behavioral tests for tools/rota_lint.py.

Each case materializes a miniature repo tree (a `src/` directory under a
temp dir) and runs the real linter against it with --root, so the rules
are exercised end to end — file discovery, comment stripping, the rule
itself, and the `// rota-lint: allow(<rule>)` escape — without planting
violation fixtures where the repository's own lint run would find them
(tests/ is on the linter's scan list).

Run directly (`python3 tests/lint_test.py`) or via CTest (LintRules.*).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTER = REPO_ROOT / "tools" / "rota_lint.py"


def run_lint(root: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINTER), "--root", str(root), *extra],
        capture_output=True, text=True, check=False)


class LintCase(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)
        (self.root / "src").mkdir()

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def write(self, rel: str, text: str) -> Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path

    def assert_clean(self, *extra: str) -> None:
        proc = run_lint(self.root, *extra)
        self.assertEqual(proc.returncode, 0,
                         f"expected clean, got:\n{proc.stdout}{proc.stderr}")

    def assert_fires(self, rule: str, *extra: str,
                     count: int | None = None) -> str:
        proc = run_lint(self.root, *extra)
        self.assertEqual(proc.returncode, 1,
                         f"expected failures, got rc={proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
        self.assertIn(f"[{rule}]", proc.stdout)
        if count is not None:
            self.assertEqual(proc.stdout.count(f"[{rule}]"), count,
                             proc.stdout)
        return proc.stdout


class DeterminismRule(LintCase):
    def test_wall_clock_fires(self) -> None:
        self.write("src/a.cpp",
                   "#include <ctime>\n"
                   "long stamp() { return std::time(nullptr); }\n")
        out = self.assert_fires("determinism", count=1)
        self.assertIn("wall-clock", out)

    def test_system_clock_fires(self) -> None:
        self.write("src/a.cpp",
                   "auto t() { return std::chrono::system_clock::now(); }\n")
        self.assert_fires("determinism", count=1)

    def test_steady_clock_is_fine(self) -> None:
        self.write("src/a.cpp",
                   "auto t() { return std::chrono::steady_clock::now(); }\n")
        self.assert_clean()

    def test_manifest_is_whitelisted(self) -> None:
        self.write("src/obs/manifest.cpp",
                   "#include <ctime>\n"
                   "long stamp() { return std::time(nullptr); }\n")
        self.assert_clean()

    def test_allow_escape(self) -> None:
        self.write(
            "src/a.cpp",
            "#include <ctime>\n"
            "long stamp() {\n"
            "  return std::time(nullptr);  // rota-lint: allow(determinism)\n"
            "}\n")
        self.assert_clean()

    def test_unordered_iteration_fires(self) -> None:
        self.write("src/a.cpp",
                   "#include <unordered_map>\n"
                   "#include <string>\n"
                   "int f(const std::unordered_map<std::string, int>& m) {\n"
                   "  int sum = 0;\n"
                   "  for (const auto& kv : m) sum += kv.second;\n"
                   "  return sum;\n"
                   "}\n")
        out = self.assert_fires("determinism", count=1)
        self.assertIn("unordered", out)

    def test_unordered_member_iteration_fires(self) -> None:
        self.write("src/a.hpp",
                   "#pragma once\n"
                   "#include <unordered_set>\n"
                   "struct S {\n"
                   "  std::unordered_set<int> seen;\n"
                   "  int sum() const {\n"
                   "    int s = 0;\n"
                   "    for (int v : seen) s += v;\n"
                   "    return s;\n"
                   "  }\n"
                   "};\n")
        self.assert_fires("determinism", count=1)

    def test_vector_iteration_is_fine(self) -> None:
        self.write("src/a.cpp",
                   "#include <vector>\n"
                   "int f(const std::vector<int>& v) {\n"
                   "  int s = 0;\n"
                   "  for (int x : v) s += x;\n"
                   "  return s;\n"
                   "}\n")
        self.assert_clean()

    def test_pointer_keyed_map_fires(self) -> None:
        self.write("src/a.cpp",
                   "#include <map>\n"
                   "struct Node {};\n"
                   "std::map<Node*, int> g_order;\n")
        out = self.assert_fires("determinism", count=1)
        self.assertIn("address", out)

    def test_uintptr_keyed_set_fires(self) -> None:
        self.write("src/a.cpp",
                   "#include <cstdint>\n"
                   "#include <set>\n"
                   "std::set<std::uintptr_t> g_seen;\n")
        self.assert_fires("determinism", count=1)

    def test_string_keyed_map_is_fine(self) -> None:
        self.write("src/a.cpp",
                   "#include <map>\n"
                   "#include <string>\n"
                   "std::map<std::string, int> g_named;\n")
        self.assert_clean()


class SignalSafetyRule(LintCase):
    HANDLER_TMPL = ("#include <csignal>\n"
                    "#include <cstdio>\n"
                    "#include <atomic>\n"
                    "#include <unistd.h>\n"
                    "std::atomic<bool> g_flag{{false}};\n"
                    "extern \"C\" void on_signal(int) {{\n"
                    "{body}"
                    "}}\n"
                    "void install() {{\n"
                    "  struct sigaction sa {{}};\n"
                    "  sa.sa_handler = &on_signal;\n"
                    "  sigaction(SIGINT, &sa, nullptr);\n"
                    "}}\n")

    def test_printf_in_handler_fires(self) -> None:
        body = "  printf(\"caught\\n\");  // rota-lint: allow(log-discipline)\n"
        self.write("src/cli/main.cpp", self.HANDLER_TMPL.format(body=body))
        out = self.assert_fires("signal-safety", count=1)
        self.assertIn("printf", out)
        self.assertIn("on_signal", out)

    def test_atomics_and_exit_are_fine(self) -> None:
        body = ("  if (g_flag.exchange(true)) {\n"
                "    _exit(130);\n"
                "  }\n")
        self.write("src/cli/main.cpp", self.HANDLER_TMPL.format(body=body))
        self.assert_clean()

    def test_signal_registration_form(self) -> None:
        self.write("src/cli/main.cpp",
                   "#include <csignal>\n"
                   "#include <cstdlib>\n"
                   "extern \"C\" void on_signal(int) {\n"
                   "  std::malloc(8);\n"
                   "}\n"
                   "void install() { std::signal(SIGTERM, on_signal); }\n")
        out = self.assert_fires("signal-safety", count=1)
        self.assertIn("malloc", out)

    def test_allow_escape(self) -> None:
        body = ("  puts(\"bye\");  "
                "// rota-lint: allow(signal-safety)\n")
        self.write("src/cli/main.cpp", self.HANDLER_TMPL.format(
            body=body).replace("#include <cstdio>\n",
                               "#include <cstdio>  "
                               "// rota-lint: allow(log-discipline)\n"))
        # puts is also a log-discipline hit; keep the fixture at
        # src/cli/main.cpp (log-allowed) so only signal-safety is in play.
        self.assert_clean()

    def test_unregistered_function_not_checked(self) -> None:
        self.write("src/a.cpp",
                   "#include <cstdlib>\n"
                   "void not_a_handler(int) { std::malloc(8); }\n")
        self.assert_clean()


class SimdIsolationRule(LintCase):
    def test_immintrin_outside_kern_fires(self) -> None:
        self.write("src/wear/fast.cpp",
                   "#include <immintrin.h>\n"
                   "void f() {}\n")
        out = self.assert_fires("simd-isolation", count=1)
        self.assertIn("src/kern", out)

    def test_x86intrin_fires(self) -> None:
        self.write("src/rel/mc.cpp", '#include "x86intrin.h"\nvoid f();\n')
        self.assert_fires("simd-isolation", count=1)

    def test_arm_neon_fires(self) -> None:
        self.write("src/util/simd.hpp",
                   "#pragma once\n#include <arm_neon.h>\n")
        self.assert_fires("simd-isolation", count=1)

    def test_kern_directory_is_exempt(self) -> None:
        self.write("src/kern/isa_avx2.cpp",
                   "#include <immintrin.h>\nvoid f() {}\n")
        self.assert_clean()

    def test_commented_include_is_fine(self) -> None:
        self.write("src/wear/doc.cpp",
                   "// #include <immintrin.h> is forbidden here\n"
                   "void f() {}\n")
        self.assert_clean()

    def test_allow_escape(self) -> None:
        self.write("src/obs/probe.cpp",
                   "#include <immintrin.h>  "
                   "// rota-lint: allow(simd-isolation)\n"
                   "void f() {}\n")
        self.assert_clean()


class CompileDbScoping(LintCase):
    VIOLATION = ("#include <cstdlib>\n"
                 "int roll() { return rand(); }\n")

    def test_cpp_outside_db_is_skipped(self) -> None:
        self.write("src/bad.cpp", self.VIOLATION)
        good = self.write("src/good.cpp", "int f() { return 1; }\n")
        db = self.root / "compile_commands.json"
        db.write_text(json.dumps(
            [{"directory": str(self.root), "file": str(good),
              "command": "c++ -c src/good.cpp"}]), encoding="utf-8")
        self.assert_clean("--compile-db", str(db))

    def test_cpp_inside_db_is_scanned(self) -> None:
        bad = self.write("src/bad.cpp", self.VIOLATION)
        db = self.root / "compile_commands.json"
        db.write_text(json.dumps(
            [{"directory": str(self.root), "file": str(bad),
              "command": "c++ -c src/bad.cpp"}]), encoding="utf-8")
        self.assert_fires("rng", "--compile-db", str(db), count=1)

    def test_headers_always_scanned(self) -> None:
        self.write("src/bad.hpp",
                   "#pragma once\n" + self.VIOLATION)
        db = self.root / "compile_commands.json"
        db.write_text("[]", encoding="utf-8")
        self.assert_fires("rng", "--compile-db", str(db), count=1)

    def test_relative_db_entries_resolve(self) -> None:
        self.write("src/bad.cpp", self.VIOLATION)
        db = self.root / "compile_commands.json"
        db.write_text(json.dumps(
            [{"directory": str(self.root), "file": "src/bad.cpp",
              "command": "c++ -c src/bad.cpp"}]), encoding="utf-8")
        self.assert_fires("rng", "--compile-db", str(db), count=1)


class ExistingRulesStillFire(LintCase):
    """Regression guard: growing the linter must not break the old rules."""

    def test_rng(self) -> None:
        self.write("src/a.cpp", "#include <random>\n"
                                "std::mt19937 g_rng;\n")
        self.assert_fires("rng", count=1)

    def test_pragma_once(self) -> None:
        self.write("src/a.hpp", "int x;\n")
        self.assert_fires("pragma-once", count=1)

    def test_log_discipline(self) -> None:
        self.write("src/wear/w.cpp",
                   "#include <iostream>\n"
                   "void report() { std::cout << 1; }\n")
        self.assert_fires("log-discipline", count=1)

    def test_log_discipline_covers_cli_commands(self) -> None:
        # Only main.cpp is exempt in src/cli; the command layer must
        # report through obs::EventLog like any other library code.
        self.write("src/cli/commands.cpp",
                   "#include <iostream>\n"
                   "void notice() { std::cerr << \"resuming\\n\"; }\n")
        self.assert_fires("log-discipline", count=1)

    def test_log_discipline_allows_terminal_sinks(self) -> None:
        body = ("#include <iostream>\n"
                "void render() { std::cerr << \"x\\n\"; }\n")
        self.write("src/cli/main.cpp", body)
        self.write("src/obs/progress.cpp", body)
        self.write("src/obs/event_log.cpp", body)
        self.assert_clean()


class RealTreeIsClean(unittest.TestCase):
    """The repository itself must pass its own linter."""

    def test_repo_clean(self) -> None:
        proc = run_lint(REPO_ROOT)
        self.assertEqual(proc.returncode, 0,
                         f"repo lint failures:\n{proc.stdout}{proc.stderr}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
