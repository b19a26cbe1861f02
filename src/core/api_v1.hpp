#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "nn/network.hpp"
#include "obs/json.hpp"
#include "sched/array_state.hpp"
#include "sched/objective.hpp"
#include "sched/schedule.hpp"
#include "util/result.hpp"
#include "wear/policy.hpp"

/// \file api_v1.hpp
/// `rota::api::v1` — the versioned, non-throwing public facade of the
/// RoTA library, and the surface the svc engine is built on.
///
/// Contract (the v1 API policy, DESIGN.md §10):
///
///   - Entry points return `Result<T>` / `Status` and are `noexcept`
///     (enforced by the api-noexcept lint rule): they never throw for
///     data errors (unknown workload, bad geometry, absent policy run),
///     and implementation exceptions are translated to Error values at
///     the boundary. The one escape is allocation failure while already
///     building the error reply, which terminates — a process that
///     cannot allocate an error string has no useful recovery.
///     Programming errors — violated precondition contracts on types
///     reached *through* a returned value — still assert via ROTA_REQUIRE.
///   - Every JSON envelope produced anywhere in the repo is stamped with
///     `schema_version` (obs::kSchemaVersion, re-exported here); readers
///     reject unknown versions instead of guessing.
///   - Additions are backward compatible within v1. Breaking changes get
///     a `rota::api::v2` namespace; v1 then remains for two releases with
///     deprecation notes before removal. Deprecated members of the
///     historical (unversioned) surface say so in their doc comment and
///     have a non-throwing v1 replacement; the throwing
///     ExperimentResult::run has been removed in favor of find_run.
///
/// The historical throwing surface (`rota::Experiment`, free functions in
/// module namespaces) remains available for in-process callers that want
/// exceptions; v1 wraps it rather than forking the implementation, so the
/// numbers are identical by construction.

namespace rota::api::v1 {

// The error channel, re-exported so v1 callers need only this header.
using util::Error;
using util::ErrorCode;
using util::Result;
using util::Status;
using util::Unit;

/// Version stamped into every JSON envelope (obs::kSchemaVersion).
inline constexpr int kSchemaVersion = obs::kSchemaVersion;

/// Look up a workload by its Table II / extended-zoo abbreviation.
[[nodiscard]] Result<nn::Network> find_workload(
    const std::string& abbr) noexcept;

/// Schedule one workload on `config.accel` with the energy-optimal
/// mapper. Errors: invalid geometry (invalid_argument).
[[nodiscard]] Result<sched::NetworkSchedule> schedule_workload(
    const ExperimentConfig& config, const nn::Network& net) noexcept;

/// Schedule one workload under an explicit mapper objective and (optional)
/// degraded array state. With the default-constructed arguments this is
/// byte-identical to schedule_workload. Errors: invalid geometry or an
/// array state whose dimensions disagree with config.accel
/// (invalid_argument), no feasible mapping on the degraded array
/// (invalid_argument).
[[nodiscard]] Result<sched::NetworkSchedule> schedule_network_with_objective(
    const ExperimentConfig& config, const nn::Network& net,
    const sched::ObjectiveSpec& objective,
    const sched::ArrayState& array_state = sched::ArrayState()) noexcept;

/// Per-layer Pareto fronts over (energy, projected MTTF, cycles) for one
/// workload, with the `objective`-selected member flagged in each front.
/// Deterministic for fixed inputs at any config.threads. Errors: as
/// schedule_network_with_objective.
[[nodiscard]] Result<sched::NetworkParetoFront> pareto_network(
    const ExperimentConfig& config, const nn::Network& net,
    const sched::ObjectiveSpec& objective,
    const sched::ArrayState& array_state = sched::ArrayState()) noexcept;

/// Run a full experiment (schedule + N wear iterations per policy).
/// Errors: invalid geometry or iteration count (invalid_argument).
[[nodiscard]] Result<ExperimentResult> run_experiment(
    const ExperimentConfig& config, const nn::Network& net,
    const std::vector<wear::PolicyKind>& policies) noexcept;

/// The run for `kind` inside `result`. Errors: not_found when the policy
/// was not part of the experiment. (ExperimentResult::find_run is the
/// pointer-returning form; the throwing ExperimentResult::run is gone.)
[[nodiscard]] Result<PolicyRun> find_run(const ExperimentResult& result,
                                         wear::PolicyKind kind) noexcept;

/// Lifetime improvement of `kind` over the baseline run (Eq. 4).
/// Errors: not_found when either run is absent.
[[nodiscard]] Result<double> lifetime_improvement(
    const ExperimentResult& result, wear::PolicyKind kind) noexcept;

}  // namespace rota::api::v1

namespace rota::api {
/// Alias for the current stable generation; code that wants "latest" can
/// say rota::api::stable and recompile across generation bumps.
namespace stable = v1;
}  // namespace rota::api
