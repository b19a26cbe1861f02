#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/experiment.hpp"
#include "nn/workloads.hpp"
#include "obs/metrics.hpp"
#include "par/parallel.hpp"
#include "par/thread_pool.hpp"
#include "reliability/monte_carlo.hpp"
#include "sched/mapper.hpp"
#include "sched/serialize.hpp"
#include "util/check.hpp"
#include "wear/policy.hpp"

/// \file par_test.cpp
/// The determinism contract of rota::par (DESIGN.md §9): thread count
/// never changes any numeric result — schedules, Monte-Carlo estimates
/// and experiment grids must be bit-identical for 1, 8 and hardware
/// lanes. Plus thread-pool unit tests (every index runs once, exception
/// plumbing, nesting) that double as the TSan stress surface.

namespace rota {
namespace {

using util::precondition_error;

// ---------------------------------------------------------- thread pool ----

TEST(ResolveThreads, ZeroMeansHardwareAndPositivePassesThrough) {
  EXPECT_GE(par::resolve_threads(0), 1u);
  EXPECT_EQ(par::resolve_threads(1), 1u);
  EXPECT_EQ(par::resolve_threads(5), 5u);
  EXPECT_THROW((void)par::resolve_threads(-1), precondition_error);
}

TEST(ThreadPool, SharedPoolHasAtLeastEightWorkers) {
  EXPECT_GE(par::ThreadPool::shared().worker_count(), 8u);
}

TEST(ThreadPool, RunBatchExecutesEveryIndexExactlyOnce) {
  constexpr std::size_t kTasks = 997;  // prime: no lane divides it evenly
  std::vector<std::atomic<int>> hits(kTasks);
  par::ThreadPool::shared().run_batch(kTasks, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, RespectsMaxConcurrency) {
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  par::ThreadPool::shared().run_batch(
      64,
      [&live, &peak](std::size_t) {
        const int now = live.fetch_add(1, std::memory_order_acq_rel) + 1;
        int seen = peak.load(std::memory_order_relaxed);
        while (now > seen &&
               !peak.compare_exchange_weak(seen, now,
                                           std::memory_order_relaxed)) {
        }
        live.fetch_sub(1, std::memory_order_acq_rel);
      },
      2);
  EXPECT_LE(peak.load(), 2);
}

TEST(ThreadPool, LowestFailingIndexWins) {
  try {
    par::ThreadPool::shared().run_batch(100, [](std::size_t i) {
      if (i == 97 || i == 23 || i == 61) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 23");
  }
}

TEST(ThreadPool, NestedBatchesRunInlineWithoutDeadlock) {
  std::vector<std::atomic<int>> hits(16 * 16);
  par::ThreadPool::shared().run_batch(16, [&hits](std::size_t outer) {
    // A nested batch from a pool worker must degrade to inline serial
    // execution instead of blocking the worker on its siblings.
    par::ThreadPool::shared().run_batch(16, [&hits, outer](std::size_t inner) {
      hits[outer * 16 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

/// Contention stress for TSan: many small batches racing on the shared
/// pool. ROTA_PAR_HAMMER=1 (set by the CI tsan job) scales the rounds up.
TEST(ThreadPool, HammerManySmallBatches) {
  const bool hammer = std::getenv("ROTA_PAR_HAMMER") != nullptr;
  const int rounds = hammer ? 200 : 20;
  auto& reg = obs::MetricsRegistry::global();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(true);  // exercise the metered task path too
  for (int r = 0; r < rounds; ++r) {
    std::atomic<std::int64_t> sum{0};
    par::parallel_for(33, 8, [&sum](std::int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 33 * 32 / 2);
  }
  reg.set_enabled(was_enabled);
}

// ------------------------------------------------------- parallel loops ----

TEST(ParallelFor, SlotResultsIdenticalAcrossThreadCounts) {
  constexpr std::int64_t kN = 513;
  auto fill = [](int threads) {
    std::vector<double> out(kN);
    par::parallel_for(kN, threads, [&out](std::int64_t i) {
      double v = 1.0;
      for (int k = 0; k < 40; ++k) {
        v = v * 0.5 + static_cast<double>(i) / (v + 1.0);
      }
      out[static_cast<std::size_t>(i)] = v;
    });
    return out;
  };
  const std::vector<double> serial = fill(1);
  EXPECT_EQ(serial, fill(8));
  EXPECT_EQ(serial, fill(0));
}

TEST(ParallelReduce, FoldOrderIsFixedSoFloatSumsMatchExactly) {
  constexpr std::int64_t kChunks = 257;
  auto sum = [](int threads) {
    return par::parallel_reduce<double>(
        kChunks, threads, 0.0,
        [](std::int64_t c) { return 1.0 / (1.0 + static_cast<double>(c)); },
        [](double acc, double part) { return acc + part; });
  };
  const double serial = sum(1);
  // Bit-identical, not just close: the fold runs in ascending chunk order
  // on the calling thread for every lane count.
  EXPECT_EQ(serial, sum(8));
  EXPECT_EQ(serial, sum(0));
}

TEST(ParallelReduce, ConcatenationPreservesChunkOrder) {
  auto concat = [](int threads) {
    return par::parallel_reduce<std::vector<std::int64_t>>(
        64, threads, {},
        [](std::int64_t c) {
          return std::vector<std::int64_t>{c * 2, c * 2 + 1};
        },
        [](std::vector<std::int64_t> acc, std::vector<std::int64_t> part) {
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        });
  };
  const auto serial = concat(1);
  ASSERT_EQ(serial.size(), 128u);
  for (std::int64_t i = 0; i < 128; ++i) {
    EXPECT_EQ(serial[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(serial, concat(8));
}

// ---------------------------------------------------- mapper determinism ----

std::string schedule_csv(const nn::Network& net, int threads) {
  sched::Mapper mapper(arch::rota_like(), sched::ObjectiveSpec{}, {},
                       sched::MapperOptions{true, threads});
  const sched::NetworkSchedule ns = mapper.schedule_network(net);
  std::ostringstream out;
  sched::write_schedule_csv(ns, out);
  return out.str();
}

TEST(MapperPar, SqueezeNetScheduleIdenticalAcrossThreadCounts) {
  const nn::Network net = nn::make_squeezenet();
  const std::string serial = schedule_csv(net, 1);
  EXPECT_EQ(serial, schedule_csv(net, 8));
  EXPECT_EQ(serial, schedule_csv(net, 0));
}

TEST(MapperPar, CacheHoldsOneEntryPerUniqueShape) {
  const nn::Network net = nn::make_squeezenet();
  std::unordered_set<sched::LayerShapeKey, sched::LayerShapeKeyHash> unique;
  for (const nn::LayerSpec& layer : net.layers()) {
    unique.insert(sched::LayerShapeKey::of(layer));
  }
  sched::Mapper mapper(arch::rota_like(), sched::ObjectiveSpec{}, {},
                       sched::MapperOptions{true, 8});
  (void)mapper.schedule_network(net);
  EXPECT_EQ(mapper.cache_size(), unique.size());
}

// ----------------------------------------------- Monte-Carlo determinism ----

TEST(MonteCarloPar, MttfBitIdenticalAcrossThreadCounts) {
  std::vector<double> alphas(168);
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    alphas[i] = 1.0 + static_cast<double>(i % 7);
  }
  // Deliberately not a multiple of kMonteCarloChunkTrials: the tail chunk
  // must behave the same in serial and parallel runs.
  const std::int64_t trials = 2 * rel::kMonteCarloChunkTrials + 100;
  const auto serial = rel::monte_carlo_mttf(alphas, 2.0, 1.0, trials, 7, 1);
  for (int threads : {8, 0}) {
    const auto par_run =
        rel::monte_carlo_mttf(alphas, 2.0, 1.0, trials, 7, threads);
    EXPECT_DOUBLE_EQ(serial.mttf, par_run.mttf) << threads;
    EXPECT_DOUBLE_EQ(serial.stderr_, par_run.stderr_) << threads;
    EXPECT_EQ(serial.trials, par_run.trials) << threads;
  }
}

TEST(MonteCarloPar, ReliabilityBitIdenticalAcrossThreadCounts) {
  const std::vector<double> alphas{1.0, 2.0, 3.0, 4.0};
  const std::int64_t trials = rel::kMonteCarloChunkTrials + 33;
  const double serial =
      rel::monte_carlo_reliability(alphas, 0.2, 2.0, 1.0, trials, 11, 1);
  EXPECT_DOUBLE_EQ(serial, rel::monte_carlo_reliability(alphas, 0.2, 2.0, 1.0,
                                                        trials, 11, 8));
}

TEST(MonteCarloPar, VariationSweepBitIdenticalAcrossThreadCounts) {
  std::vector<double> base(24);
  std::vector<double> wl(24);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<double>(i % 6);
    wl[i] = 2.0 + static_cast<double>(i % 2);
  }
  const std::int64_t trials = 3 * rel::kVariationChunkTrials + 7;
  const auto serial =
      rel::lifetime_improvement_under_variation(base, wl, 2.0, 0.1, trials,
                                                13, 1);
  const auto par_run =
      rel::lifetime_improvement_under_variation(base, wl, 2.0, 0.1, trials,
                                                13, 8);
  EXPECT_DOUBLE_EQ(serial.mean, par_run.mean);
  EXPECT_DOUBLE_EQ(serial.p05, par_run.p05);
  EXPECT_DOUBLE_EQ(serial.p50, par_run.p50);
  EXPECT_DOUBLE_EQ(serial.p95, par_run.p95);
  EXPECT_EQ(serial.trials, par_run.trials);
}

// ------------------------------------------------ experiment determinism ----

const std::vector<wear::PolicyKind>& test_policies() {
  static const std::vector<wear::PolicyKind> kinds{
      wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
      wear::PolicyKind::kRwlRo, wear::PolicyKind::kRandomStart};
  return kinds;
}

void expect_same_result(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.network_abbr, b.network_abbr);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].kind, b.runs[i].kind);
    EXPECT_EQ(a.runs[i].policy_name, b.runs[i].policy_name);
    EXPECT_EQ(a.runs[i].usage, b.runs[i].usage) << a.runs[i].policy_name;
    EXPECT_EQ(a.runs[i].stats.max_diff, b.runs[i].stats.max_diff);
    EXPECT_DOUBLE_EQ(a.runs[i].stats.r_diff, b.runs[i].stats.r_diff);
  }
  std::ostringstream csv_a;
  std::ostringstream csv_b;
  sched::write_schedule_csv(a.schedule, csv_a);
  sched::write_schedule_csv(b.schedule, csv_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
}

ExperimentResult run_once(int threads) {
  ExperimentConfig cfg;
  cfg.iterations = 50;
  cfg.threads = threads;
  Experiment exp(cfg);
  return exp.run(nn::make_squeezenet(), test_policies());
}

TEST(ExperimentPar, RunIdenticalAcrossThreadCounts) {
  const ExperimentResult serial = run_once(1);
  expect_same_result(serial, run_once(8));
  expect_same_result(serial, run_once(0));
}

}  // namespace
}  // namespace rota
