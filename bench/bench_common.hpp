#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/rota.hpp"

/// \file bench_common.hpp
/// Shared plumbing for the reproduction benches: section banners, the
/// standard table+CSV emission, cached scheduling across the workload
/// zoo, and machine-readable JSON output for CI regression tracking.

namespace rota::bench {

/// One measured benchmark: name plus per-iteration wall/CPU time.
struct BenchRecord {
  std::string name;
  double real_ms = 0.0;
  double cpu_ms = 0.0;
  std::int64_t iterations = 0;
};

/// Remove `--json FILE` (or `--json=FILE`) from argv before it reaches
/// benchmark::Initialize, returning the path ("" if absent). Falls back
/// to the ROTA_BENCH_JSON environment variable so CI can request JSON
/// without touching the command line.
std::string take_json_path(int& argc, char** argv);

/// Write `{"schema_version": N, "manifest": ..., "metrics": {name: {...}}}`
/// to `path` via the checked util::write_text_file (throws util::io_error
/// on failure). tools/bench_compare.py rejects envelopes whose
/// schema_version it does not understand.
void write_bench_json(const std::string& path, const obs::RunManifest& manifest,
                      const std::vector<BenchRecord>& records);

/// Print a banner naming the reproduced figure/table.
void banner(const std::string& experiment_id, const std::string& title);

/// Print a text table followed by the same rows as a CSV block.
void emit(const util::TextTable& table,
          const std::vector<std::string>& csv_header,
          const std::vector<std::vector<std::string>>& csv_rows);

/// Schedule every Table II workload on the given accelerator, reusing one
/// mapper so repeated shapes are searched once.
std::vector<sched::NetworkSchedule> schedule_all_workloads(
    const arch::AcceleratorConfig& cfg);

/// The three schemes compared throughout the paper's evaluation.
const std::vector<wear::PolicyKind>& paper_policies();

/// The run for `kind`, which must have been part of the experiment (the
/// benches always look up policies they just ran). Built on the
/// non-throwing ExperimentResult::find_run; aborts via ROTA_ENSURE on a
/// bench-harness bug instead of unwinding mid-report.
const wear::PolicyRun& run_of(const ExperimentResult& result,
                              wear::PolicyKind kind);

}  // namespace rota::bench
