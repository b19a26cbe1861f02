#include "obs/progress.hpp"

#include <atomic>
#include <iostream>
#include <sstream>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "obs/event_log.hpp"
#include "util/table.hpp"

namespace rota::obs {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_force_tty{false};
std::atomic<std::int64_t> g_heartbeat_interval_ms{5000};
/// Live reporters on this thread; only the outermost one reports.
thread_local int t_live_reporters = 0;

bool stderr_is_tty() {
#if defined(_WIN32)
  return false;
#else
  return isatty(STDERR_FILENO) != 0;
#endif
}

constexpr auto kMinPrintInterval = std::chrono::milliseconds(250);

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(to - from)
      .count();
}

}  // namespace

void ProgressReporter::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool ProgressReporter::enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void ProgressReporter::force_tty(bool on) {
  g_force_tty.store(on, std::memory_order_relaxed);
}

void ProgressReporter::set_heartbeat_interval_ms(std::int64_t ms) {
  g_heartbeat_interval_ms.store(ms < 1 ? 1 : ms, std::memory_order_relaxed);
}

ProgressReporter::ProgressReporter(std::string label, std::int64_t total)
    : label_(std::move(label)),
      total_(total),
      nested_(t_live_reporters++ > 0) {
  const bool tty =
      g_force_tty.load(std::memory_order_relaxed) || stderr_is_tty();
  const bool report = total_ > 0 && !nested_;
  active_ = report && enabled() && tty;
  heartbeat_ = report && !active_ && !tty && EventLog::global().enabled();
  if (!active_ && !heartbeat_) return;
  start_ = std::chrono::steady_clock::now();
  last_print_ = start_ - kMinPrintInterval;  // first tick prints immediately
  last_heartbeat_ = start_;  // first heartbeat only after one interval
}

void ProgressReporter::tick(std::int64_t delta) {
  if (!active_ && !heartbeat_) return;
  done_ += delta;
  const auto now = std::chrono::steady_clock::now();
  if (active_) {
    if (now - last_print_ < kMinPrintInterval && done_ < total_) return;
    last_print_ = now;
    print_line(false);
    return;
  }
  const auto interval = std::chrono::milliseconds(
      g_heartbeat_interval_ms.load(std::memory_order_relaxed));
  if (now - last_heartbeat_ < interval) return;
  last_heartbeat_ = now;
  log_heartbeat(false);
}

void ProgressReporter::note_checkpoint() {
  if (!active_ && !heartbeat_) return;
  has_checkpoint_ = true;
  last_checkpoint_ = std::chrono::steady_clock::now();
}

void ProgressReporter::print_line(bool final_line) {
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start_)
          .count();
  const double rate = elapsed > 0.0 ? static_cast<double>(done_) / elapsed : 0.0;
  const std::int64_t remaining = total_ - done_;
  std::ostringstream os;
  os << '\r' << label_ << ' '
     << (total_ > 0 ? 100 * done_ / total_ : 0) << "% (" << done_ << '/'
     << total_;
  if (rate > 0.0) {
    os << ", " << util::fmt(rate, 1) << "/s, ETA "
       << util::fmt(remaining > 0 ? static_cast<double>(remaining) / rate
                                  : 0.0,
                    0)
       << "s";
  }
  os << ")   ";
  if (final_line) os << '\n';
  std::cerr << os.str() << std::flush;
  printed_ = true;
}

void ProgressReporter::log_heartbeat(bool final_line) {
  const auto now = std::chrono::steady_clock::now();
  const double elapsed = seconds_between(start_, now);
  const double rate =
      elapsed > 0.0 ? static_cast<double>(done_) / elapsed : 0.0;
  const std::int64_t remaining = total_ - done_;
  std::ostringstream os;
  os << label_ << ' ' << (total_ > 0 ? 100 * done_ / total_ : 0) << "% ("
     << done_ << '/' << total_;
  if (rate > 0.0) {
    os << ", " << util::fmt(rate, 1) << "/s, ETA "
       << util::fmt(remaining > 0 ? static_cast<double>(remaining) / rate
                                  : 0.0,
                    0)
       << "s";
  }
  if (has_checkpoint_) {
    os << ", last checkpoint " << util::fmt(seconds_between(last_checkpoint_, now), 0)
       << "s ago";
  }
  os << ')';
  if (final_line) os << " done";
  log_event(Severity::kInfo, "obs", os.str());
  heartbeat_logged_ = true;
}

void ProgressReporter::finish() {
  if (active_ && printed_) {
    print_line(true);
  } else if (heartbeat_ && heartbeat_logged_) {
    // A completion event only for runs long enough to have heartbeated;
    // short runs stay silent instead of spamming one event per cell.
    log_heartbeat(true);
  }
  active_ = false;
  heartbeat_ = false;
}

ProgressReporter::~ProgressReporter() {
  finish();
  --t_live_reporters;
}

}  // namespace rota::obs
