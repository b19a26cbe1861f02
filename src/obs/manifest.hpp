#pragma once

#include <cstdint>
#include <map>
#include <string>

/// \file manifest.hpp
/// The RunManifest: a reproducibility stamp attached to every experiment,
/// CLI stats snapshot (`--stats-out`) and bench JSON — accelerator
/// geometry, workload, policy, seed, iteration count, build identity
/// (version / git SHA / build type), UTC start time and wall-clock
/// duration. Two results are comparable across PRs exactly when their
/// manifests say they measured the same thing.

namespace rota::obs {

struct RunManifest {
  std::string tool;      ///< producing binary ("rota", "perf_micro", …)
  std::string command;   ///< the argv tail, joined with spaces
  std::string workload;  ///< Table II abbreviation ("" if n/a)
  std::string policy;    ///< wear policy name ("" if n/a)
  std::string metric;    ///< wear accounting ("alloc"/"cycles", "" if n/a)
  std::int64_t array_width = 0;
  std::int64_t array_height = 0;
  std::int64_t iterations = 0;
  std::uint64_t seed = 0;
  std::string version;        ///< obs::version()
  std::string git_sha;        ///< obs::git_sha()
  std::string build_type;     ///< obs::build_type()
  std::string timestamp_utc;  ///< ISO-8601 UTC start time
  double wall_seconds = 0.0;  ///< run duration, filled before writing
  /// Free-form additions (e.g. "spares", "beta", bench repetitions).
  std::map<std::string, std::string> extra;

  /// One JSON object with every field above (extra keys inlined under
  /// "extra").
  [[nodiscard]] std::string to_json() const;
};

/// Manifest pre-filled with build identity and the current UTC wall
/// clock; callers fill the workload-specific fields.
[[nodiscard]] RunManifest make_run_manifest(std::string tool,
                                            std::string command);

}  // namespace rota::obs
