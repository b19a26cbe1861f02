#!/usr/bin/env python3
"""End-to-end benchmark of the rota library (see NOTES.md).

Run from the root of a source checkout:

    python3 perf_e2e/run.py --workload zoo-lifetime --seed 3 --seconds 10 --trace 0

builds the benchmark program (perf_e2e/CMakeLists.txt, into $CARGO_TARGET_DIR or
.bench_build), runs one workload in a process of its own and prints, as
the last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it carries the host and
run stamp and the reasons for any failed op.

Maintenance modes:

    python3 perf_e2e/run.py --selfcheck     # gate, metric-name and span-tree checks
    python3 perf_e2e/run.py --record-pins   # rewrite pins.txt (default seed)
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.txt"
WORKLOADS = ["zoo-lifetime", "pareto-faulted", "degrade-long", "serve-replay"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# ROADMAP: stages must cover at least 95% of end-to-end op time.
MAX_UNATTRIBUTED = 0.05


def fail(message, code=2):
    print(f"perf_e2e: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, capture=False):
    """Run cmd in its own process group; on timeout the whole group (make
    and compiler children included) is killed and reaped."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture
                             else sys.stderr, stderr=sys.stderr, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s", 1)
    return child.returncode, out or ""


def build():
    """Configure once, then build incrementally; returns the program's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no rota sources under {ROOT / 'src'}")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    out = out / "perf_e2e"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perf_e2e",
                  "-j", jobs])
    for step in steps:
        code, _ = run(step, BUILD_TIMEOUT_S)
        if code != 0:
            fail(f"build step {' '.join(step[:2])} exited {code}")
    return out / "perf_e2e"


def run_bench(binary, args):
    """Run the benchmark program once and return its JSON report."""
    code, out = run([str(binary), *args, "--pins", str(PINS)],
                    RUN_TIMEOUT_S, capture=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"perf_e2e exited {code} without a report", 1)
    return json.loads(lines[-1])


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_names(report, trace):
    """Every metric printed must be declared in BENCHMARK.json, and back."""
    printed = {k: v["unit"] for k, v in report["metrics"].items()}
    declared = declared_metrics(trace)
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(k for k in set(printed) & set(declared)
                       if printed[k] != declared[k])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"undeclared {extra}, unit mismatch {units}"
    return ""


def selfcheck(binary):
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what, file=sys.stderr)
        if not cond:
            problems.append(what)

    for w in WORKLOADS:
        base = ["--workload", w, "--seed", "1", "--seconds", "1"]
        plain = run_bench(binary, base + ["--trace", "0"])
        expect(plain["correct"] and plain["failed"] == 0,
               f"{w}: default seed passes the correctness gate")
        expect(not check_names(plain, False),
               f"{w}: end-to-end metric names match BENCHMARK.json")
        bad = run_bench(binary, base + ["--trace", "0", "--perturb"])
        by = bad["failed_by"]
        expect(not bad["correct"] and by.get("pin", 0) > 0 and
               by.get("reference", 0) > 0,
               f"{w}: perturbed pins and references count as failed ops "
               f"({bad['failed']} of {bad['attempted']})")
        traced = run_bench(binary, ["--workload", w, "--seed", "2",
                                     "--seconds", "2", "--trace", "1"])
        expect(traced["correct"],
               f"{w}: span tree has no orphans and self times add up")
        expect(not check_names(traced, True),
               f"{w}: per-layer metric names match BENCHMARK.json")
        share = traced["metrics"][f"{w}.unattributed_share"]["value"]
        expect(0 <= share <= MAX_UNATTRIBUTED,
               f"{w}: unattributed share {share:.4f} <= {MAX_UNATTRIBUTED}")
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--record-pins", action="store_true")
    a = p.parse_args()
    if not (a.workload or a.selfcheck or a.record_pins):
        p.error("--workload is required")
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if a.record_pins:
        code, out = run([str(binary), "--record-pins"], RUN_TIMEOUT_S,
                        capture=True)
        if code != 0:
            fail("recording pins failed", 1)
        PINS.write_text(out)
        print(f"wrote {len(out.splitlines())} pins to {PINS}",
              file=sys.stderr)
        return 0
    if a.selfcheck:
        return selfcheck(binary)

    report = run_bench(binary, ["--workload", a.workload, "--seed",
                                 str(a.seed), "--seconds", str(a.seconds),
                                 "--trace", str(a.trace)])
    problem = check_names(report, a.trace == 1)
    if problem:
        fail(problem, 1)
    print(json.dumps({k: report[k]
                      for k in ("stamp", "failed_by", "reasons")}))
    print(json.dumps({k: report[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
