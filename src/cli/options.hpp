#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wear/policy.hpp"
#include "wear/simulator.hpp"

/// \file options.hpp
/// Command-line parsing for the `rota` tool. Kept free of I/O so the test
/// suite can exercise it directly; parse errors throw
/// util::precondition_error with a user-facing message.
///
/// Options are subcommand-scoped: every verb declares the set of flags it
/// owns and rejects the rest with an "option not accepted by this
/// subcommand" error, so `rota lifetime --policy RWL` (lifetime always
/// compares all schemes) fails loudly instead of silently ignoring the
/// flag. The observability flags (--trace, --stats-out, --stats-interval,
/// --events, --progress, -v/--verbose) are owned by every working verb.

namespace rota::cli {

/// Which subcommand was requested.
enum class Verb {
  kHelp,
  kVersion,    ///< print build identity (version, git SHA, build type)
  kWorkloads,  ///< list the Table II zoo
  kSchedule,   ///< per-layer utilization spaces for one workload
  kWear,       ///< run the wear simulator and print stats + heatmap
  kLifetime,   ///< lifetime improvement of all schemes for one workload
  kArea,       ///< area breakdown and torus overhead
  kThermal,    ///< temperature fields and Arrhenius-coupled lifetime
  kServe,      ///< JSON-lines batch service on stdin/stdout (rota::svc)
  kSweep,      ///< full workload x policy sweep to CSV, checkpointable
  kMc,         ///< Monte-Carlo MTTF of one workload+policy, checkpointable
  kPareto,     ///< per-layer Pareto fronts over (energy, MTTF, cycles)
  kDegrade,    ///< degraded-mode lifetime engine: faults, remaps,
               ///< reschedules, retirement (rota::fi)
};

/// The verb's name as typed on the command line ("wear", "serve", ...).
[[nodiscard]] std::string verb_name(Verb verb);

/// Fully parsed invocation.
struct Options {
  Verb verb = Verb::kHelp;
  std::string workload;  ///< Table II abbreviation (where applicable)
  std::int64_t array_width = 14;
  std::int64_t array_height = 12;
  std::int64_t iterations = 1000;
  std::int64_t spares = 0;
  std::int64_t mc_trials = 0;  ///< lifetime: Monte-Carlo cross-check trials
  std::int64_t threads = 1;    ///< worker lanes (0 = hardware concurrency);
                               ///< results are identical for any value
  std::uint64_t seed = 0x526f5441;  ///< stochastic policies / MC ("RoTA")
  wear::PolicyKind policy = wear::PolicyKind::kRwlRo;
  wear::WearMetric metric = wear::WearMetric::kAllocations;
  std::string pgm_path;       ///< optional heatmap image output
  std::string csv_out_path;   ///< schedule/pareto: export result as CSV
  std::string json_out_path;  ///< pareto: write the JSON envelope here
  /// schedule/pareto: mapper objective spec, unparsed ("energy",
  /// "lifetime", "throughput" or "weighted:<w1>,<w2>,<w3>"; see
  /// sched::parse_objective).
  std::string objective = "energy";
  std::string schedule_path;  ///< wear: import a schedule CSV instead of
                              ///< running the built-in mapper
  // serve (see src/svc/):
  std::string cache_dir;      ///< on-disk schedule-cache tier ("" = off)
  std::int64_t cache_capacity = 4096;  ///< in-memory schedule-cache entries
  std::int64_t max_batch = 64;  ///< flush replies at least this often
  std::int64_t queue_cap = 0;   ///< shed beyond this queue depth (0 = off)
  // sweep / mc / degrade (see src/fi/):
  std::vector<std::string> faults;  ///< --fault specs, unparsed (repeatable)
  std::string checkpoint_path;      ///< checkpoint/resume file ("" = off)
  std::int64_t trials = 100000;     ///< mc: Monte-Carlo trials
  bool oblivious = false;  ///< degrade: fail-stop baseline (no repair loop)
  double retire_fraction = 0.75;  ///< degrade: retire below this live share
  std::int64_t checkpoint_every = 64;  ///< degrade: autosave cadence (iters)
  // Observability (see src/obs/): every verb accepts these.
  std::string trace_path;    ///< write a Chrome trace-event JSON here
  std::string stats_out_path;  ///< {manifest, metrics} snapshot (+ .om twin)
  std::int64_t stats_interval_ms = 0;  ///< snapshot period; 0 = exit only
  std::string events_path;   ///< structured EventLog JSON-lines sink
  bool progress = false;     ///< ETA progress lines on stderr (TTY only)
  bool verbose = false;      ///< print the metrics table after the run
  std::string raw_args;      ///< the argv tail, joined (for RunManifest)
};

/// Parse argv (excluding argv[0]).
/// Verbs: workloads | schedule | wear | lifetime | area | thermal |
/// serve | sweep | mc | pareto | degrade | version | help. Each verb
/// accepts only the flags it owns (see usage()); a flag that exists but
/// belongs to a different verb produces
/// "option --X is not accepted by 'rota <verb>'", a flag that exists
/// nowhere produces "unknown option". Throws util::precondition_error on
/// any parse failure.
Options parse(const std::vector<std::string>& args);

/// Parse "14x12"-style geometry. Throws on malformed input.
void parse_geometry(const std::string& text, std::int64_t& width,
                    std::int64_t& height);

/// Parse a policy name as printed by wear::to_string (case-sensitive:
/// "Baseline", "RWL", "RWL+RO", "RandomStart", "DiagonalStride").
wear::PolicyKind parse_policy(const std::string& name);

/// The help text.
std::string usage();

}  // namespace rota::cli
