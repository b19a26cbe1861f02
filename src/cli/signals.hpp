#pragma once

#include <atomic>
#include <cstdint>

/// \file signals.hpp
/// SIGINT/SIGTERM handling for the long-running `rota` verbs (serve,
/// sweep, mc). The contract, documented in the README:
///
///   first signal   → cooperative drain: the flag below flips, the verb
///                    finishes its in-flight unit of work, checkpoints or
///                    flushes, and exits with kExitInterrupted (4);
///   second signal  → immediate _exit(130) — the escape hatch when the
///                    drain itself is stuck.
///
/// The handlers are installed *without* SA_RESTART so a signal arriving
/// during the blocking std::getline of `rota serve` interrupts the read
/// (EINTR) instead of silently restarting it — otherwise the drain would
/// wait for the next request line to notice the flag.
///
/// Everything here is async-signal-safe: the handler touches one atomic
/// and (on the second hit) calls _exit.

namespace rota::cli {

/// Exit code of a run that was interrupted and drained cleanly.
inline constexpr int kExitInterrupted = 4;

/// Exit code of a `rota degrade` run that hit the retirement threshold:
/// the array kept too few live PEs (or no feasible schedule) to continue.
/// Distinct from failure (1) — the run itself completed honestly.
inline constexpr int kExitRetired = 5;

/// Install SIGINT/SIGTERM handlers (idempotent). POSIX-only; a no-op on
/// other platforms, where the default handlers keep terminating.
void install_signal_handlers();

/// The drain flag the handlers set. Stable address for the whole process
/// — safe to hand to svc::Engine::serve.
[[nodiscard]] const std::atomic<bool>* interrupt_flag();

/// True once the first signal has arrived.
[[nodiscard]] bool interrupted();

/// Test seams: raise or clear the flag exactly as the handler would,
/// without involving real signals.
void simulate_interrupt();
void clear_interrupt();

/// Deterministic mid-run interruption for tests: the flag rises once
/// `units` more units of work have been ticked (each completed sweep cell
/// or mc step ticks one, each degrade iteration one). Negative disables
/// the budget (the default).
void simulate_interrupt_after(int units);

/// Called by the checkpointable verbs after completing `units` units of
/// work; a no-op unless simulate_interrupt_after armed a budget.
void tick_interrupt_budget(std::int64_t units = 1);

}  // namespace rota::cli
