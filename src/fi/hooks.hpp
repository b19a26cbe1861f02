#pragma once

#include <cstdint>
#include <string_view>

#include "fi/plan.hpp"

/// \file hooks.hpp
/// Process-wide software-fault injection (`fi::Hooks`). Arming a
/// SoftwarePlan installs hooks into the seams the lower layers expose —
/// util::set_io_fault_hook for file I/O, par::set_worker_fault_hook for
/// pool tasks — and answers allocation-failure queries for the layers
/// that ask (svc::Engine). Everything is deterministic: each fault
/// category draws from its own splitmix64 stream keyed on the plan seed
/// and a per-category operation counter, so a fixed seed and operation
/// order reproduce the exact fault pattern.
///
/// Disarmed (the default), the seams cost one relaxed atomic load per
/// operation and nothing is installed — production binaries carry the
/// hardening (retries, atomic writes, shedding) but no fault source.
///
/// Arming is process-global and not reference-counted: tests and the CLI
/// arm once at startup (ROTA_FI) or around one scenario, and must disarm
/// before arming a different plan.

namespace rota::fi {

/// Cumulative injected-fault counts since the last arm()/reset_counters().
/// Mirrored into obs metrics (fi.read_faults, fi.write_faults,
/// fi.corruptions, fi.stalls, fi.alloc_faults) when the registry is
/// enabled, so they land in the --stats-out snapshot next to the
/// retry/shed counters of the hardened layers.
struct HookCounters {
  std::int64_t read_faults = 0;
  std::int64_t write_faults = 0;
  std::int64_t corruptions = 0;
  std::int64_t stalls = 0;
  std::int64_t alloc_faults = 0;
};

class Hooks {
 public:
  Hooks() = delete;  // static-only

  /// Install the plan's hooks. A plan with no positive rate disarms
  /// instead. Counters reset on every arm.
  static void arm(const SoftwarePlan& plan);

  /// Remove all installed hooks.
  static void disarm();

  [[nodiscard]] static bool armed();

  /// The armed plan (all-zero when disarmed).
  [[nodiscard]] static SoftwarePlan plan();

  [[nodiscard]] static HookCounters counters();
  static void reset_counters();

  /// Allocation-failure query for layers that simulate OOM: true means
  /// "pretend this allocation failed" (the caller throws std::bad_alloc
  /// or degrades). `site` labels the caller in the decision stream.
  [[nodiscard]] static bool should_fail_alloc(std::string_view site);

  /// Arm from the ROTA_FI environment variable if it is set and non-empty.
  /// Returns false (leaving the hooks untouched) when unset; throws
  /// util::precondition_error on a malformed spec so operators see the
  /// parse error instead of silently running fault-free.
  static bool arm_from_env();
};

}  // namespace rota::fi
