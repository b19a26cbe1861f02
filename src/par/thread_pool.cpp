#include "par/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace rota::par {

namespace {

/// Worker-side marker: which pool (if any) owns the calling thread.
/// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
thread_local const ThreadPool* tls_worker_pool = nullptr;

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// The fi worker-stall seam (see set_worker_fault_hook): armed flag on
/// the task fast path, hook copy under a mutex on the slow path.
/// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
std::atomic<bool> g_worker_hook_armed{false};
/// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
util::Mutex g_worker_hook_mu;
/// NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
std::function<void()> g_worker_hook ROTA_GUARDED_BY(g_worker_hook_mu);

}  // namespace

void run_worker_fault_hook() {
  if (!g_worker_hook_armed.load(std::memory_order_relaxed)) return;
  std::function<void()> hook;
  {
    const util::MutexLock lock(g_worker_hook_mu);
    hook = g_worker_hook;
  }
  if (hook) hook();
}

void set_worker_fault_hook(std::function<void()> hook) {
  const util::MutexLock lock(g_worker_hook_mu);
  g_worker_hook = std::move(hook);
  g_worker_hook_armed.store(static_cast<bool>(g_worker_hook),
                            std::memory_order_relaxed);
}

bool worker_fault_hook_armed() {
  return g_worker_hook_armed.load(std::memory_order_relaxed);
}

std::size_t resolve_threads(int requested) {
  ROTA_REQUIRE(requested >= 0, "thread count must be non-negative "
                               "(0 = one lane per hardware thread)");
  if (requested == 0) return hardware_threads();
  return static_cast<std::size_t>(requested);
}

/// Shared bookkeeping of one run_batch call. Lane jobs hold a shared_ptr
/// so a job that is dequeued after the batch already drained (its lanes
/// were outrun by others) can still read `next`/`task_count` safely; it
/// exits without touching `task`, whose captures only outlive the
/// caller's run_batch frame while indices remain unclaimed.
struct ThreadPool::BatchState {
  std::function<void(std::size_t)> task;
  std::size_t task_count = 0;
  std::atomic<std::size_t> next{0};
  util::Mutex mu;
  util::CondVar done_cv;
  std::size_t completed ROTA_GUARDED_BY(mu) = 0;
  std::size_t error_index ROTA_GUARDED_BY(mu) =
      std::numeric_limits<std::size_t>::max();
  /// The exception thrown by the lowest failing index.
  std::exception_ptr error ROTA_GUARDED_BY(mu);
};

ThreadPool::ThreadPool(std::size_t workers) {
  ROTA_REQUIRE(workers >= 1, "a thread pool needs at least one worker");
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const util::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max<std::size_t>(hardware_threads(), 8));
  return pool;
}

bool ThreadPool::on_worker_thread() const { return tls_worker_pool == this; }

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> job;
    {
      util::MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(lock, mu_);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    const util::MutexLock lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::run_lane(const std::shared_ptr<BatchState>& state) {
  auto& reg = obs::MetricsRegistry::global();
  for (;;) {
    const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state->task_count) return;
    std::exception_ptr err;
    const bool metered = reg.enabled();
    const auto t0 = metered ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
    try {
      run_worker_fault_hook();
      state->task(i);
    } catch (...) {
      err = std::current_exception();
    }
    if (metered) {
      reg.add("par.tasks_executed");
      reg.observe("par.task_seconds",
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count());
    }
    bool last = false;
    {
      const util::MutexLock lock(state->mu);
      if (err && i < state->error_index) {
        state->error_index = i;
        state->error = err;
      }
      last = ++state->completed == state->task_count;
    }
    if (last) state->done_cv.notify_all();
  }
}

void ThreadPool::run_batch(std::size_t task_count,
                           const std::function<void(std::size_t)>& task,
                           std::size_t max_concurrency) {
  if (task_count == 0) return;
  auto& reg = obs::MetricsRegistry::global();
  if (reg.enabled()) reg.add("par.tasks_submitted",
                             static_cast<std::int64_t>(task_count));

  const std::size_t requested =
      max_concurrency == 0 ? worker_count() + 1 : max_concurrency;
  const std::size_t lanes = std::min(requested, task_count);

  // Serial fast path — also taken for nested batches launched from a
  // worker, so nesting degrades to inline execution instead of
  // deadlocking a worker on its siblings.
  if (lanes <= 1 || on_worker_thread()) {
    if (on_worker_thread() && reg.enabled()) reg.add("par.nested_serial");
    for (std::size_t i = 0; i < task_count; ++i) {
      run_worker_fault_hook();
      task(i);
      if (reg.enabled()) reg.add("par.tasks_executed");
    }
    return;
  }

  const obs::TraceSpan span("par.batch", "par");
  const obs::ScopedTimer timer("par.batch_seconds");
  if (reg.enabled()) {
    reg.gauge("par.pool_workers", static_cast<double>(worker_count()));
    reg.gauge("par.batch_lanes", static_cast<double>(lanes));
  }

  auto state = std::make_shared<BatchState>();
  state->task = task;
  state->task_count = task_count;
  for (std::size_t lane = 1; lane < lanes; ++lane) {
    enqueue([state] { run_lane(state); });
  }
  run_lane(state);  // the calling thread is a lane too

  util::MutexLock lock(state->mu);
  while (state->completed != state->task_count) {
    state->done_cv.wait(lock, state->mu);
  }
  // Move the error out before unlocking: a late-dequeued lane job may be
  // the last owner of `state`, and ~BatchState on a worker thread must
  // not release the exception object while the caller still examines it.
  std::exception_ptr error = std::move(state->error);
  state->error = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace rota::par
