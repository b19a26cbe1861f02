#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "fi/checkpoint.hpp"
#include "fi/plan.hpp"
#include "nn/network.hpp"
#include "reliability/spares.hpp"
#include "sched/objective.hpp"
#include "wear/policy.hpp"

/// \file degrade.hpp
/// The degraded-mode lifetime engine (DESIGN.md §16): ages an accelerator
/// through an iteration-stamped fault timeline and, on each fault,
/// executes the repair-and-reschedule loop — claim a spare through
/// rel::SpareRemapper, rebuild the live map as a sched::ArrayState,
/// re-run sched::Mapper under the active objective on the degraded array,
/// and keep aging under the new schedule with the wear policy masked to
/// live PEs (wear::MaskedPolicy). When the spare pool exhausts the device
/// degrades gracefully — shrinking live set, derated throughput — until a
/// configurable retirement threshold ends the run.
///
/// Determinism contract: fault arrivals (declared and Weibull-sampled)
/// ride single SplitMix64 substreams and every schedule search is
/// bit-identical at any thread count, so the whole timeline — CSV
/// included — is byte-identical for any `threads`. Runs are resumable:
/// rota-checkpoint blobs carry the usage grid, policy rotation state, the
/// remapper operation log and the unexpired fault timeline, and the
/// fingerprint gate includes the canonical fault plan plus the remapper
/// state kind so a checkpoint never resumes against different work.

namespace rota::fi {

/// How the engine reacts to faults the spare pool cannot absorb.
enum class DegradeMode {
  /// Repair-and-reschedule: rebuild the schedule on the degraded array
  /// and mask the wear rotation to live PEs. The device keeps serving
  /// correct results until the retirement threshold.
  kFaultAware,
  /// Fail-stop baseline: the schedule and rotation never react. Work
  /// landing on dead, un-spared PEs is lost, and the first such fault
  /// ends correct service (the paper's serial-chain reading, Eq. 2).
  kFaultOblivious,
};

[[nodiscard]] std::string to_string(DegradeMode mode);

struct DegradeOptions {
  std::int64_t iterations = 512;   ///< inference passes to simulate
  std::int64_t spares = 4;         ///< spare-pool size
  std::uint64_t seed = 1;          ///< weibull sampling + RandomStart
  double beta = rel::kJedecShape;  ///< Weibull shape
  DegradeMode mode = DegradeMode::kFaultAware;
  sched::ObjectiveSpec objective;  ///< drives every (re)schedule
  wear::PolicyKind policy = wear::PolicyKind::kRwlRo;
  /// Retire once live primaries drop below this fraction of the array.
  double retire_live_fraction = 0.75;
  int threads = 1;                 ///< mapper lanes; never changes results
  std::vector<HardwareFault> faults;
  /// Workload identity stamped into the checkpoint fingerprint.
  std::string workload_tag;
  std::string checkpoint_path;     ///< "" disables checkpointing
  std::int64_t checkpoint_every = 64;  ///< iterations between autosaves
  /// Checkpoint to resume from (validated by the CLI against
  /// degrade_fingerprint); null starts fresh.
  const Checkpoint* resume = nullptr;
};

/// Everything the run produced. MTTF framing: `mttf_initial` evaluates
/// the fault-free wear profile with the full spare pool;
/// `mttf_final` evaluates the surviving live set's observed rates with
/// the device's *residual fault tolerance* — free spares plus, in
/// fault-aware mode, the additional un-spared deaths the retirement
/// threshold still absorbs (`retire_budget`). A fault-oblivious device is
/// fail-stop at the first un-spared fault, so its tolerance is the free
/// pool alone — and zero lifetime remains once such a fault has landed.
struct DegradeReport {
  std::int64_t iterations_run = 0;
  bool retired = false;
  std::int64_t retired_at = -1;     ///< iteration of retirement, or -1
  bool interrupted = false;         ///< stopped by should_stop (checkpointed)
  bool resumed = false;
  std::int64_t faults_injected = 0;
  std::int64_t transient_restores = 0;
  std::int64_t remaps = 0;          ///< faults absorbed by a spare
  std::int64_t unmapped_faults = 0; ///< faults the pool could not absorb
  std::int64_t reschedules = 0;     ///< mapper re-runs on a degraded array
  std::int64_t redirected_units = 0;
  std::int64_t lost_units = 0;
  std::int64_t first_unspared_at = -1;  ///< end of correct fail-stop service
  std::int64_t live_pes = 0;        ///< final live primaries (spared count)
  std::int64_t retire_budget = 0;   ///< further un-spared deaths tolerated
  double initial_energy = 0.0;      ///< per-iteration, intact schedule
  double final_energy = 0.0;        ///< per-iteration, final schedule
  double energy_overhead = 0.0;     ///< final/initial − 1
  double initial_cycles = 0.0;
  double final_cycles = 0.0;
  double throughput_derating = 0.0; ///< final/initial − 1
  double mttf_initial = 0.0;
  double mttf_final = 0.0;
  /// Observed per-iteration wear rates of the surviving live set (live
  /// primaries plus in-service spares) and the residual tolerance used
  /// for mttf_final — free spares plus retire_budget, capped below the
  /// live set's active PE count — the exact inputs for a
  /// monte_carlo_spare_mttf cross-check.
  std::vector<double> live_alphas;
  std::int64_t mttf_tolerance = 0;
  rel::SpareRemapper::Stats spare_stats;
  std::vector<std::string> events;  ///< human-readable timeline
  std::string timeline_csv;         ///< deterministic CSV artifact
};

/// Polled at every boundary the engine visits (see run_degraded_lifetime)
/// with the completed-iteration count; returning true before the horizon
/// stops the run after saving a checkpoint (when enabled). Boundaries are
/// epoch ends, not every iteration, so a caller that budgets by
/// iterations must count `completed`, not calls. Empty = never stop early.
using DegradeStopCheck = std::function<bool(std::int64_t completed)>;

/// Fingerprint of the work a degrade checkpoint belongs to: workload,
/// array geometry, horizon, spares, seed, beta, mode, objective, policy,
/// retirement threshold, the canonical fault plan and the remapper state
/// kind. Resuming against any other value is stale.
[[nodiscard]] std::string degrade_fingerprint(
    const arch::AcceleratorConfig& config, const DegradeOptions& options);

/// Run the degraded-mode lifetime. Deterministic for fixed inputs at any
/// `threads`; byte-equal across interrupt/resume.
///
/// The run is a sequence of event epochs. Each epoch ends at the next
/// boundary that needs a look — iteration 1 (fault-free profile, Weibull
/// draw), the next pending event, the next `checkpoint_every` multiple
/// when checkpointing, or the horizon — and runs in one
/// WearSimulator::run_iterations call, which jumps whole rotation periods
/// (simulator.hpp). Redirected and lost units are credited once per epoch
/// from its usage delta on dead cells; the dead set is constant inside an
/// epoch, so the sum is the per-iteration one. At the boundary the engine
/// applies due events, remaps, retires or reschedules, polls
/// `should_stop`, and autosaves. The timeline, report and checkpoints are
/// byte-identical to stepping one iteration at a time. \pre iterations >= 1,
/// spares >= 0, retire_live_fraction in (0, 1]; coordinate faults inside
/// the array.
[[nodiscard]] DegradeReport run_degraded_lifetime(
    const arch::AcceleratorConfig& config, const nn::Network& net,
    const DegradeOptions& options, const DegradeStopCheck& should_stop = {});

}  // namespace rota::fi
