#pragma once

#include <chrono>
#include <cstdint>
#include <string>

/// \file progress.hpp
/// Rate-limited ETA reporting for long runs (thousand-iteration wear
/// simulations, Monte Carlo batches). Reports go to stderr so they never
/// contaminate piped stdout, and only when BOTH the global gate is open
/// (CLI --progress) AND stderr is a terminal (or force_tty(), used by
/// tests) — a cron job or CI log never sees carriage-return spinners.
/// A reporter that fails the gate at construction makes tick() a single
/// branch.
///
/// When stderr is NOT a terminal but the structured EventLog is enabled,
/// the reporter degrades to a heartbeat: every few seconds (see
/// set_heartbeat_interval_ms) it logs one info event with percentage,
/// rate, ETA and — when note_checkpoint() is being called — the age of
/// the last checkpoint, so a headless sweep/mc run is observable from its
/// event stream instead of invisible until exit.
///
/// Only the outermost live reporter on a thread reports: one constructed
/// while another is alive stays inert, so a verb that drives many short
/// inner runs (degrade epochs, sweep cells) shows one line, its own.

namespace rota::obs {

class ProgressReporter {
 public:
  /// \param label prefix shown on the progress line ("wear SN").
  /// \param total total units of work (must be >= 0; 0 disables output).
  ProgressReporter(std::string label, std::int64_t total);
  ~ProgressReporter();
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// Record `delta` completed units; prints at most ~4 times/second
  /// (TTY) or logs a heartbeat event per interval (non-TTY + EventLog).
  void tick(std::int64_t delta = 1);

  /// Record that a checkpoint was just persisted; the heartbeat then
  /// reports the last-checkpoint age (sweep/mc call this after each
  /// fi::Checkpoint save).
  void note_checkpoint();

  /// Print the final 100% line and a newline (idempotent; the destructor
  /// calls it too). In heartbeat mode, logs a final completion event.
  void finish();

  /// Global gate, default off (wired to the CLI --progress flag).
  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled();

  /// Pretend stderr is a TTY (tests capture std::cerr through rdbuf).
  static void force_tty(bool on);

  /// Minimum milliseconds between heartbeat events (default 5000;
  /// tests shrink it). Values < 1 clamp to 1.
  static void set_heartbeat_interval_ms(std::int64_t ms);

 private:
  void print_line(bool final_line);
  void log_heartbeat(bool final_line);

  std::string label_;
  std::int64_t total_;
  std::int64_t done_ = 0;
  bool active_ = false;     ///< TTY spinner armed
  bool heartbeat_ = false;  ///< EventLog heartbeat armed
  bool printed_ = false;
  bool heartbeat_logged_ = false;
  bool has_checkpoint_ = false;
  bool nested_ = false;     ///< another reporter was live at construction
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point last_print_{};
  std::chrono::steady_clock::time_point last_heartbeat_{};
  std::chrono::steady_clock::time_point last_checkpoint_{};
};

}  // namespace rota::obs
