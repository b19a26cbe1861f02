#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"
#include "util/check.hpp"

/// \file parallel.hpp
/// Deterministic parallel loops over the shared ThreadPool.
///
/// Determinism contract (DESIGN.md §9): the value computed by every
/// helper here is a pure function of the problem, never of the thread
/// count or the scheduler. parallel_for writes results into
/// caller-indexed slots; parallel_reduce evaluates independent chunks and
/// combines them in ascending chunk order on the calling thread, so
/// floating-point reduction order is fixed. `threads == 1` runs inline
/// (ascending order, no pool) and produces bit-identical results to any
/// other thread count *by construction* — parallel callers must decompose
/// work by problem size (e.g. fixed-size Monte-Carlo chunks), not by
/// thread count.

namespace rota::par {

/// Run `body(i)` for every i in [0, count). `threads` follows the CLI
/// convention: 1 = inline serial (default-equivalent everywhere in the
/// repo), 0 = one lane per hardware thread, N = at most N concurrent
/// tasks. Exceptions: the one thrown by the lowest index wins.
template <typename Body>
void parallel_for(std::int64_t count, int threads, const Body& body) {
  if (count <= 0) return;
  const std::size_t lanes = resolve_threads(threads);
  if (lanes <= 1 || count == 1) {
    for (std::int64_t i = 0; i < count; ++i) {
      run_worker_fault_hook();
      body(i);
    }
    return;
  }
  ThreadPool::shared().run_batch(
      static_cast<std::size_t>(count),
      [&body](std::size_t i) { body(static_cast<std::int64_t>(i)); }, lanes);
}

/// Evaluate `chunk(c)` for every c in [0, chunk_count) and fold the
/// results as `acc = combine(std::move(acc), std::move(result_c))` in
/// ascending chunk order, starting from `init`. The fold runs on the
/// calling thread after all chunks finish, so the reduction is
/// order-independent of scheduling — identical for every thread count.
template <typename T, typename ChunkFn, typename CombineFn>
[[nodiscard]] T parallel_reduce(std::int64_t chunk_count, int threads, T init,
                                const ChunkFn& chunk,
                                const CombineFn& combine) {
  T acc = std::move(init);
  if (chunk_count <= 0) return acc;
  const std::size_t lanes = resolve_threads(threads);
  if (lanes <= 1 || chunk_count == 1) {
    for (std::int64_t c = 0; c < chunk_count; ++c) {
      run_worker_fault_hook();
      acc = combine(std::move(acc), chunk(c));
    }
    return acc;
  }
  std::vector<T> partial(static_cast<std::size_t>(chunk_count));
  ThreadPool::shared().run_batch(
      static_cast<std::size_t>(chunk_count),
      [&partial, &chunk](std::size_t c) {
        partial[c] = chunk(static_cast<std::int64_t>(c));
      },
      lanes);
  for (T& p : partial) acc = combine(std::move(acc), std::move(p));
  return acc;
}

}  // namespace rota::par
