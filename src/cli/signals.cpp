#include "cli/signals.hpp"

#include <algorithm>
#include <limits>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <unistd.h>
#define ROTA_CLI_HAVE_SIGNALS 1
#endif

namespace rota::cli {

namespace {

/// Written from signal context. [support.signal] only blesses atomic
/// access in a handler when the atomic is lock-free — a locking fallback
/// would deadlock if the signal lands while the lock is held — so the
/// flag must be lock-free *on every platform*, not just this one.
std::atomic<bool> g_interrupted{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "the interrupt flag is touched from a signal handler and "
              "must never fall back to a locking implementation");

#ifdef ROTA_CLI_HAVE_SIGNALS
/// Async-signal-safe by construction: one lock-free atomic exchange, and
/// _exit on the second hit (128 + SIGINT, the conventional
/// killed-by-signal code). The body is checked by the signal-safety lint
/// rule (tools/rota_lint.py) — only the async-signal-safe whitelist may
/// be called from here; in particular no allocation, no iostreams, no
/// util::Mutex (signals.cpp state is deliberately outside the capability
/// model: a mutex cannot be acquired in signal context at all).
extern "C" void rota_cli_signal_handler(int /*signum*/) {
  if (g_interrupted.exchange(true, std::memory_order_relaxed)) {
    _exit(130);
  }
}
#endif

}  // namespace

void install_signal_handlers() {
#ifdef ROTA_CLI_HAVE_SIGNALS
  struct sigaction action {};
  action.sa_handler = &rota_cli_signal_handler;
  sigemptyset(&action.sa_mask);
  // Deliberately no SA_RESTART: serve's blocking getline must EINTR so
  // the drain starts now, not at the next request line.
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
#endif
}

const std::atomic<bool>* interrupt_flag() { return &g_interrupted; }

bool interrupted() {
  return g_interrupted.load(std::memory_order_relaxed);
}

void simulate_interrupt() {
  g_interrupted.store(true, std::memory_order_relaxed);
}

void clear_interrupt() {
  g_interrupted.store(false, std::memory_order_relaxed);
}

namespace {
/// Test-only simulation state, ticked from ordinary (non-signal) code on
/// the serve loop's thread; lock-freedom asserted anyway so a future
/// signal-context use cannot silently regress.
std::atomic<int> g_interrupt_budget{-1};
static_assert(std::atomic<int>::is_always_lock_free,
              "interrupt budget must stay lock-free");
}  // namespace

void simulate_interrupt_after(int units) {
  g_interrupt_budget.store(units, std::memory_order_relaxed);
}

void tick_interrupt_budget(std::int64_t units) {
  if (units <= 0 || g_interrupt_budget.load(std::memory_order_relaxed) < 0) {
    return;
  }
  const int step = static_cast<int>(
      std::min<std::int64_t>(units, std::numeric_limits<int>::max()));
  if (g_interrupt_budget.fetch_sub(step, std::memory_order_relaxed) <= step) {
    g_interrupt_budget.store(-1, std::memory_order_relaxed);
    g_interrupted.store(true, std::memory_order_relaxed);
  }
}

}  // namespace rota::cli
