#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"

/// \file plan.hpp
/// Fault plans (`rota::fi`): declarative descriptions of what to break,
/// parsed once and executed deterministically from a seed. Two families
/// share the grammar conventions:
///
/// **Software faults** (SoftwarePlan) perturb the process itself — failed
/// or corrupted file I/O, stalled pool workers, allocation failure — and
/// are armed process-wide through fi::Hooks (see hooks.hpp). The spec is a
/// comma-separated key=value list, also accepted via the ROTA_FI
/// environment variable:
///
///   read=0.1,write=0.1,corrupt=0.05,stall=0.01,stall_ms=5,
///   alloc=0.001,seed=42,match=schedule-cache
///
/// **Hardware faults** (HardwareFault) kill PEs of the simulated array and
/// are consumed by fi::run_degraded_lifetime (degrade.hpp) at runtime and
/// by fi::array_state_from_faults (inject.hpp) statically. Grammar, one
/// fault per spec (the CLI flag repeats):
///
///   pe=U,V@ITER        permanent fault of PE (U,V) after iteration ITER
///   pe=U,V@ITER+K      transient: restored K iterations later
///   rank=R@ITER        fault the rank-th most-worn live PE (0 = most worn)
///   weibull=N          N faults at Weibull-sampled times (seeded; per-PE
///                      scale η/α_ij from observed first-iteration wear)
///
/// Both parsers return Result rather than throwing: a bad spec is operator
/// input, not a caller bug.

namespace rota::fi {

/// Probabilities are per *operation* (one file read, one file write, one
/// pool task), decided deterministically from `seed` and an operation
/// sequence number, so a fixed seed yields a reproducible fault pattern
/// for a fixed operation order.
struct SoftwarePlan {
  double read_fail_rate = 0.0;    ///< P(file read throws util::io_error)
  double write_fail_rate = 0.0;   ///< P(file write throws util::io_error)
  double corrupt_rate = 0.0;      ///< P(read data is bit-flipped instead)
  double stall_rate = 0.0;        ///< P(a pool task sleeps stall_ms first)
  std::int64_t stall_ms = 2;      ///< stall duration
  double alloc_fail_rate = 0.0;   ///< P(an allocation site reports OOM)
  std::uint64_t seed = 1;
  /// When non-empty, I/O faults hit only paths containing this substring
  /// (e.g. "schedule-cache" to spare run artifacts); stalls and alloc
  /// faults are unaffected.
  std::string path_match;

  /// True when any fault rate is positive (arming a plan with any() ==
  /// false is a no-op).
  [[nodiscard]] bool any() const;
  /// Round-trippable spec string (parse_software_plan(to_spec()) == *this).
  [[nodiscard]] std::string to_spec() const;
};

/// Parse the key=value spec described above. Unknown keys, rates outside
/// [0, 1] and malformed numbers are kInvalidArgument errors. The empty
/// string parses to the all-zero plan.
[[nodiscard]] util::Result<SoftwarePlan> parse_software_plan(
    std::string_view spec);

enum class HardwareFaultKind {
  kCoordinate,  ///< pe=U,V@ITER[+K]
  kWearRank,    ///< rank=R@ITER
  kWeibull,     ///< weibull=N
};

/// One declared hardware-fault event (see file comment for the grammar).
struct HardwareFault {
  HardwareFaultKind kind = HardwareFaultKind::kCoordinate;
  std::int64_t u = -1;          ///< kCoordinate
  std::int64_t v = -1;          ///< kCoordinate
  std::int64_t rank = -1;       ///< kWearRank; 0 = most worn at that instant
  std::int64_t iteration = 1;   ///< strike after this iteration completes
  std::int64_t restore_after = 0;  ///< kCoordinate: >0 = transient, restored
                                   ///< this many iterations after the strike
  std::int64_t count = 0;       ///< kWeibull: number of sampled faults
};

/// Parse one hardware-fault spec.
[[nodiscard]] util::Result<HardwareFault> parse_hardware_fault(
    std::string_view spec);

/// Round-trippable rendering (used by run manifests and reports).
[[nodiscard]] std::string to_string(const HardwareFault& fault);

}  // namespace rota::fi
