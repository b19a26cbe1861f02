#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

/// \file thread_pool.hpp
/// The deterministic parallel-execution substrate (`rota::par`). A
/// fixed-size worker pool executes *batches* of indexed tasks; callers
/// never observe scheduling order because every result is written to the
/// slot named by its task index and reductions combine slots in ascending
/// index order (see parallel.hpp). The contract throughout the repo:
/// **thread count never changes any numeric result** — it only changes
/// wall-clock time. Work is decomposed by problem size (layer shapes,
/// fixed-size Monte-Carlo chunks, policy cells), not by thread count, and
/// the serial path (`threads == 1`) bypasses the pool entirely, executing
/// tasks inline in ascending index order.
///
/// Observability: batches report `par.tasks_submitted` /
/// `par.tasks_executed` counters, the `par.batch_lanes` /
/// `par.pool_workers` gauges and `par.task_seconds` / `par.batch_seconds`
/// histograms when the global MetricsRegistry is enabled; the per-task
/// cost while disabled is one relaxed atomic load.

namespace rota::par {

/// Resolve a user-facing thread-count request: 0 means "one lane per
/// hardware thread" (never less than 1), any positive value is taken
/// as-is. Used by the CLI `--threads` flag and every library entry point
/// that accepts a thread count.
/// \pre requested >= 0
[[nodiscard]] std::size_t resolve_threads(int requested);

/// Fault-injection seam (installed by fi::Hooks, unset in production):
/// when set, the hook runs at the top of every task — pool lane or inline
/// (parallel.hpp's serial path included) — so src/fi can model slow or
/// stalled workers (sleeps) at any thread count without the pool knowing
/// about the fi layer. Determinism is unaffected — a stalled worker only
/// delays its lane, results still land in caller-indexed slots. Install
/// before spawning work and clear after joining it; the unarmed cost is
/// one relaxed atomic load per task.
void set_worker_fault_hook(std::function<void()> hook);

/// True when a worker fault hook is installed.
[[nodiscard]] bool worker_fault_hook_armed();

/// Run the installed worker fault hook, if any (see above).
void run_worker_fault_hook();

/// Fixed-size pool of worker threads executing indexed task batches.
///
/// Reentrancy: a batch launched from inside a pool worker (nested
/// parallelism) runs inline and serially on that worker — the pool never
/// blocks a worker on other workers, so nesting cannot deadlock and
/// nested results are still deterministic.
class ThreadPool {
 public:
  /// Spin up `workers` threads (at least 1).
  /// \pre workers >= 1
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// The process-wide pool used by parallel_for / parallel_reduce. Sized
  /// for the host but never below 8 workers, so concurrency bugs are
  /// exercised (and TSan-checked) even on small CI machines; `--threads`
  /// limits *lanes per batch*, not pool size.
  static ThreadPool& shared();

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const;

  /// Execute `task(0) … task(task_count-1)`, blocking until all have
  /// finished. At most `max_concurrency` tasks run at once (0 = one lane
  /// per worker plus the calling thread, which participates). Tasks are
  /// claimed dynamically, so long tasks do not serialize behind short
  /// ones; any per-index results must be written to caller-owned slots.
  /// If tasks throw, the exception thrown by the lowest task index is
  /// rethrown here after the batch drains (the rest are swallowed), which
  /// keeps error behavior independent of thread schedule.
  void run_batch(std::size_t task_count,
                 const std::function<void(std::size_t)>& task,
                 std::size_t max_concurrency = 0) ROTA_EXCLUDES(mu_);

 private:
  struct BatchState;

  void worker_loop();
  void enqueue(std::function<void()> job) ROTA_EXCLUDES(mu_);
  static void run_lane(const std::shared_ptr<BatchState>& state);

  /// Joined by the destructor only; never touched while workers run.
  std::vector<std::thread> workers_;
  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::deque<std::function<void()>> queue_ ROTA_GUARDED_BY(mu_);
  bool stop_ ROTA_GUARDED_BY(mu_) = false;
};

}  // namespace rota::par
