#pragma once

#include <cstdint>
#include <vector>

#include "fi/plan.hpp"
#include "reliability/spares.hpp"
#include "sched/array_state.hpp"
#include "util/result.hpp"

/// \file inject.hpp
/// The static reading of a hardware fault plan: which PEs a plan leaves
/// dead before any run, as the sched::ArrayState the fault-aware mapper
/// consumes. The runtime reading — faults striking mid-run, work routed
/// through the spare pool — is fi::run_degraded_lifetime (degrade.hpp),
/// which `rota degrade` runs (`--oblivious`: its fault-oblivious mode).
/// Both readings share one set of fault-selection rules (defined in
/// degrade.cpp).

namespace rota::fi {

/// Observed per-PE wear that gives wear-dependent fault specs a static
/// reading: `rank=R` resolves to the R-th most-worn live primary and
/// `weibull=N` samples N distinct PEs with probability ∝ usage^β — the
/// same selection rules the degrade engine applies at runtime.
struct WearSnapshot {
  std::vector<std::int64_t> usage;  ///< row-major w·h usage counters
  double beta = rel::kJedecShape;   ///< Weibull shape for weibull= sampling
  std::uint64_t seed = 1;           ///< drives weibull= sampling
};

/// Fold permanent faults into the sched::ArrayState the fault-aware
/// mapper consumes (DESIGN.md §15): each fault claims a spare through a
/// fresh rel::SpareRemapper (lowest-free-spare order, like the degrade
/// engine), and only PEs left dead *and* un-spared make the state
/// degraded. Without a wear snapshot only permanent `pe=U,V@ITER` specs
/// convert; with one, `rank=R@ITER` and `weibull=N` resolve against the
/// snapshot deterministically. Errors (invalid_argument): out-of-range
/// coordinates, transient (`+K`) faults (they heal at runtime and have no
/// static reading), wear-dependent faults without a snapshot, or a
/// snapshot whose geometry does not match.
[[nodiscard]] util::Result<sched::ArrayState> array_state_from_faults(
    std::int64_t width, std::int64_t height,
    const std::vector<HardwareFault>& faults, std::int64_t spares = 0);
[[nodiscard]] util::Result<sched::ArrayState> array_state_from_faults(
    std::int64_t width, std::int64_t height,
    const std::vector<HardwareFault>& faults, std::int64_t spares,
    const WearSnapshot& wear);

}  // namespace rota::fi
