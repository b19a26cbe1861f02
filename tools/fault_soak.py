#!/usr/bin/env python3
"""Soak `rota serve` under injected software faults and prove degradation
is graceful — and observable, live.

Usage: fault_soak.py PATH/TO/rota [--artifacts DIR]

Three serve sessions against the same request batch:

  1. clean      — no faults, fresh cache dir (the reference replies);
  2. fault cold — ROTA_FI arms failed reads/writes and bit-flipped
                  reads scoped to the schedule-cache directory;
  3. fault warm — same faulty plan again over the now-populated cache,
                  so disk reads (and their corruption/retry paths)
                  actually execute.

Pass criteria, all hard assertions:

  * every session exits 0 — injected faults must never crash or hang
    the server, and every request gets a reply;
  * replies are bit-identical across all three sessions once the
    nondeterministic `wall_seconds` timing field is stripped — the
    cache may lose work under faults, never invent it;
  * the faulty sessions' exit snapshots show the faults actually fired
    (fi.* counters nonzero) and the hardening actually engaged
    (svc.cache.* retry/corrupt-recompute counters nonzero);
  * a faulted session run with --stats-interval publishes live
    snapshots WHILE serving (final seq >= 2), the JSON and OpenMetrics
    twins agree (validated via tools/check_openmetrics.py), the
    snapshot carries nonzero fi/retry counters plus p50/p95/p99
    latency histograms, the in-band {"op":"stats"} request answers
    with the same envelope, and the --events sink is valid JSON lines;
  * a session with --queue-cap 1 under heavy compute sheds at least
    one request with a structured `overloaded` error while still
    answering every line (svc.requests_shed nonzero, and visible in
    its exit snapshot);
  * a `rota degrade` lifetime run produces a bit-identical fault
    timeline at --threads 1/8/0 and under injected checkpoint write
    faults, with nonzero degrade.remaps / degrade.reschedules counters
    in its exit snapshot and structured degrade events in the sink.

With --artifacts DIR the stats/events artifacts are copied there for CI
upload before the scratch directory is removed.

Exit status: 0 = OK, non-zero assertion/diagnostic otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_openmetrics  # noqa: E402  (sibling tool, reused as library)

# The envelope generation this tool understands (obs::kSchemaVersion in
# src/obs/json.hpp). Bump in lockstep with the C++ constant.
SCHEMA_VERSION = 2

# Scoping substring for ROTA_FI `match=`: faults hit only the schedule
# cache, not the stats/events artifacts this script must read back.
CACHE_DIR_NAME = "soak-schedule-cache"

FAULT_PLAN = (
    "read=0.15,write=0.15,corrupt=0.3,seed=7,match=" + CACHE_DIR_NAME
)


def request_batch() -> str:
    """Schedule-heavy batch: many distinct shapes -> many cache files."""
    lines = []
    for i, workload in enumerate(("Sqz", "Mb", "Res", "Eff")):
        lines.append(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "id": f"s{i}",
                    "op": "schedule",
                    "workload": workload,
                }
            )
        )
    lines.append(
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "id": "w0",
                "op": "wear",
                "workload": "Sqz",
                "iters": 200,
            }
        )
    )
    lines.append(
        json.dumps(
            {"schema_version": SCHEMA_VERSION, "id": "bye", "op": "shutdown"}
        )
    )
    return "\n".join(lines) + "\n"


def serve(
    rota: str,
    workdir: str,
    tag: str,
    batch: str,
    fault_plan: str | None,
    extra_flags: list[str] | None = None,
) -> tuple[list[str], dict]:
    """One serve session; returns (reply lines sans wall_seconds, metrics).

    The metrics come from the exit snapshot `<workdir>/<tag>/stats.json`
    (with its OpenMetrics twin `stats.om`) that --stats-out leaves behind.
    """
    cache_dir = os.path.join(workdir, tag, CACHE_DIR_NAME)
    stats_path = os.path.join(workdir, tag, "stats.json")
    os.makedirs(os.path.dirname(stats_path), exist_ok=True)
    env = dict(os.environ)
    env.pop("ROTA_FI", None)
    if fault_plan is not None:
        env["ROTA_FI"] = fault_plan
    proc = subprocess.run(
        [rota, "serve", "--cache-dir", cache_dir, "--stats-out", stats_path]
        + (extra_flags or []),
        input=batch,
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert proc.returncode == 0, (
        f"{tag}: serve exited {proc.returncode}\n{proc.stderr}"
    )
    replies = []
    for line in proc.stdout.splitlines():
        reply = json.loads(line)
        assert reply.get("schema_version") == SCHEMA_VERSION, reply
        reply.pop("wall_seconds", None)
        replies.append(json.dumps(reply, sort_keys=True))
    doc = json.load(open(stats_path))
    assert doc.get("schema_version") == SCHEMA_VERSION, stats_path
    return replies, doc["metrics"]


def counter(metrics: dict, name: str) -> int:
    return int(metrics.get(name, {}).get("value", 0))


def check_live_telemetry(rota: str, workdir: str, batch: str) -> int:
    """Faulted serve with live snapshots + events; returns publishes seen."""
    tag = "stats"
    stats_json = os.path.join(workdir, tag, "stats.json")
    stats_om = os.path.join(workdir, tag, "stats.om")
    events_path = os.path.join(workdir, tag, "events.jsonl")
    # A heavy wear request stretches the session across several sampler
    # intervals, then an in-band stats request reads the same telemetry.
    lines = batch.splitlines()
    extra = [
        json.dumps(
            {
                "schema_version": SCHEMA_VERSION,
                "id": "heavy",
                "op": "wear",
                "workload": "Sqz",
                "iters": 3000,
            }
        ),
        json.dumps(
            {"schema_version": SCHEMA_VERSION, "id": "st", "op": "stats"}
        ),
    ]
    stats_batch = "\n".join(lines[:-1] + extra + [lines[-1]]) + "\n"
    replies, _ = serve(
        rota,
        workdir,
        tag,
        stats_batch,
        FAULT_PLAN,
        [
            "--stats-interval", "25",
            "--events", events_path,
        ],
    )

    # (a) mid-run publishing: the exit snapshot's seq counts every publish,
    # so seq >= 2 proves at least one landed while requests were in flight.
    snapshot = json.load(open(stats_json))
    assert snapshot.get("schema_version") == SCHEMA_VERSION, snapshot
    assert snapshot.get("kind") == "metrics_snapshot", snapshot
    assert snapshot.get("seq", 0) >= 2, (
        f"no mid-run snapshot published (seq={snapshot.get('seq')})"
    )
    metrics = snapshot["metrics"]
    injected = sum(
        counter(metrics, n)
        for n in ("fi.read_faults", "fi.write_faults", "fi.corruptions")
    )
    assert injected > 0, "snapshot shows no injected faults"
    retried = sum(
        counter(metrics, n)
        for n in (
            "svc.cache.disk_read_retries",
            "svc.cache.disk_write_retries",
            "svc.cache.disk_corrupt",
        )
    )
    assert retried > 0, "snapshot shows no retry/recompute activity"

    # (b) the OpenMetrics twin parses and agrees with the JSON.
    errors = check_openmetrics.validate(
        open(stats_om).read(), open(stats_json).read()
    )
    assert not errors, "OpenMetrics twin disagrees: " + "; ".join(errors)

    # (c) per-request latency histograms with the full quantile ladder.
    for name in ("svc.queue_wait_ms", "svc.compute_ms", "svc.reply_ms"):
        hist = metrics.get(name)
        assert hist and hist.get("type") == "histogram", f"missing {name}"
        assert hist["count"] > 0, f"{name} never observed"
        for q in ("p50", "p95", "p99"):
            assert q in hist, f"{name} lacks {q}"

    # (d) the in-band stats reply carries the same envelope.
    in_band = next(
        json.loads(r) for r in replies if '"id": "st"' in r or '"id":"st"' in r
    )
    assert in_band["ok"], in_band
    assert in_band["result"]["kind"] == "metrics_snapshot", in_band
    assert in_band["result"]["schema_version"] == SCHEMA_VERSION, in_band
    # queue_wait is observed before a job executes, so the stats job's own
    # pickup guarantees the histogram exists by the time it snapshots.
    assert "svc.queue_wait_ms" in in_band["result"]["metrics"], in_band

    # (e) the events sink is valid JSON lines with the structured fields.
    with open(events_path) as fh:
        events = [json.loads(line) for line in fh if line.strip()]
    assert events, "events sink is empty"
    for ev in events:
        assert ev["schema_version"] == SCHEMA_VERSION, ev
        assert ev["severity"] in ("debug", "info", "warn", "error"), ev
        assert ev["component"], ev
    return snapshot["seq"]


def check_degrade(rota: str, workdir: str) -> tuple[int, int]:
    """Degraded-lifetime run under ROTA_FI with live telemetry.

    Arms write/corrupt faults scoped to the checkpoint file so the
    engine's atomic checkpoint saves exercise their retry path, scrapes
    the exit snapshot for the degrade.* counters, and proves the fault
    timeline is byte-identical across thread counts and under injected
    I/O faults. Returns (remaps, reschedules) seen in the snapshot.
    """
    tag = "degrade"
    outdir = os.path.join(workdir, tag)
    os.makedirs(outdir, exist_ok=True)
    stats_json = os.path.join(outdir, "stats.json")
    stats_om = os.path.join(outdir, "stats.om")
    events_path = os.path.join(outdir, "events.jsonl")
    ckpt_name = "soak-degrade-ckpt"

    def run(threads: str, csv: str, faulted: bool) -> None:
        env = dict(os.environ)
        env.pop("ROTA_FI", None)
        argv = [
            rota, "degrade", "AN",
            "--iters", "96", "--spares", "2",
            "--fault", "pe=5,5@20", "--fault", "weibull=5",
            "--retire", "0.9", "--seed", "7",
            "--threads", threads, "--csv", csv,
        ]
        if faulted:
            env["ROTA_FI"] = "write=0.3,corrupt=0.3,seed=11,match=" + ckpt_name
            argv += [
                "--checkpoint", os.path.join(outdir, ckpt_name),
                "--ckpt-every", "16",
                "--stats-out", stats_json,
                "--events", events_path,
            ]
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=600, env=env
        )
        assert proc.returncode == 0, (
            f"degrade --threads {threads} exited {proc.returncode}\n"
            f"{proc.stderr}"
        )

    # Reference timeline, then the faulted telemetry run and two more
    # lane counts: all four CSVs must be byte-identical (DESIGN.md §16).
    csvs = [os.path.join(outdir, f"timeline{i}.csv") for i in range(4)]
    run("1", csvs[0], faulted=False)
    run("1", csvs[1], faulted=True)
    run("8", csvs[2], faulted=False)
    run("0", csvs[3], faulted=False)
    reference = open(csvs[0], "rb").read()
    assert reference, "degrade wrote an empty timeline"
    for path in csvs[1:]:
        assert open(path, "rb").read() == reference, (
            f"degrade timeline differs: {path}"
        )

    snapshot = json.load(open(stats_json))
    assert snapshot.get("schema_version") == SCHEMA_VERSION, snapshot
    metrics = snapshot["metrics"]
    remaps = counter(metrics, "degrade.remaps")
    reschedules = counter(metrics, "degrade.reschedules")
    assert counter(metrics, "degrade.faults") > 0, (
        "snapshot shows no injected hardware faults"
    )
    assert remaps > 0, "snapshot shows no spare remaps"
    assert reschedules > 0, "snapshot shows no degraded-array reschedules"

    errors = check_openmetrics.validate(
        open(stats_om).read(), open(stats_json).read()
    )
    assert not errors, "degrade OM twin disagrees: " + "; ".join(errors)

    with open(events_path) as fh:
        events = [json.loads(line) for line in fh if line.strip()]
    assert any(ev["component"] == "degrade" for ev in events), (
        "no structured degrade events emitted"
    )
    return remaps, reschedules


def main() -> None:
    args = sys.argv[1:]
    artifacts_dir = None
    if "--artifacts" in args:
        idx = args.index("--artifacts")
        artifacts_dir = args[idx + 1]
        del args[idx:idx + 2]
    if len(args) != 1:
        sys.exit(__doc__)
    rota = args[0]
    batch = request_batch()
    workdir = tempfile.mkdtemp(prefix="rota_fault_soak_")
    try:
        clean, _ = serve(rota, workdir, "clean", batch, None)
        assert len(clean) == batch.count("\n"), "clean: missing replies"
        assert all('"ok":true' in r or '"ok": true' in r for r in clean), clean

        # Cold and warm faulty sessions share one cache dir ("fault/...").
        cold, cold_metrics = serve(rota, workdir, "fault", batch, FAULT_PLAN)
        warm, warm_metrics = serve(rota, workdir, "fault", batch, FAULT_PLAN)

        assert cold == clean, "fault cold: replies differ from clean run"
        assert warm == clean, "fault warm: replies differ from clean run"

        injected = sum(
            counter(m, name)
            for m in (cold_metrics, warm_metrics)
            for name in ("fi.read_faults", "fi.write_faults", "fi.corruptions")
        )
        assert injected > 0, "fault plan armed but no fault ever fired"
        hardened = sum(
            counter(m, name)
            for m in (cold_metrics, warm_metrics)
            for name in (
                "svc.cache.disk_read_retries",
                "svc.cache.disk_write_retries",
                "svc.cache.disk_corrupt",
            )
        )
        assert hardened > 0, "faults fired but no retry/recompute engaged"

        # Live telemetry under the same fault plan.
        snapshots = check_live_telemetry(rota, workdir, batch)

        # Overload shedding: eight slow wear requests against queue-cap 1.
        shed_lines = [
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "id": f"w{i}",
                    "op": "wear",
                    "workload": "Sqz",
                    "iters": 3000,
                }
            )
            for i in range(8)
        ]
        shed_batch = "\n".join(shed_lines) + "\n"
        shed_stats = os.path.join(workdir, "shed", "stats.json")
        replies, shed_metrics = serve(
            rota, workdir, "shed", shed_batch, None,
            ["--queue-cap", "1"],
        )
        assert len(replies) == 8, "shed: every request must be answered"
        overloaded = sum(1 for r in replies if '"overloaded"' in r)
        assert overloaded >= 1, "queue-cap 1 under 8 slow requests never shed"
        # The shed counter is visible in the exit snapshot twins.
        assert counter(shed_metrics, "svc.requests_shed") == overloaded
        errors = check_openmetrics.validate(
            open(shed_stats[: -len(".json")] + ".om").read(),
            open(shed_stats).read(),
        )
        assert not errors, "shed OM twin disagrees: " + "; ".join(errors)

        # Degraded-lifetime engine: deterministic timeline, live spare
        # remapping and rescheduling visible in the exit snapshot, and
        # checkpoint saves surviving injected write faults.
        remaps, reschedules = check_degrade(rota, workdir)

        if artifacts_dir:
            os.makedirs(artifacts_dir, exist_ok=True)
            for tag, name in (
                ("stats", "stats.json"),
                ("stats", "stats.om"),
                ("stats", "events.jsonl"),
                ("shed", "stats.json"),
                ("degrade", "stats.json"),
                ("degrade", "events.jsonl"),
            ):
                src = os.path.join(workdir, tag, name)
                if os.path.exists(src):
                    shutil.copy(
                        src, os.path.join(artifacts_dir, f"{tag}-{name}")
                    )

        print(
            f"fault soak OK: {injected} faults injected, "
            f"{hardened} retries/recomputes, replies bit-identical; "
            f"{snapshots} live snapshots published under faults; "
            f"{overloaded}/8 requests shed at --queue-cap 1; "
            f"degrade timeline bit-identical with {remaps} remaps and "
            f"{reschedules} reschedules"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
