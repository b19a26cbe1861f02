#pragma once

/// \file rota.hpp
/// Umbrella header of the RoTA library. Including this gives the full
/// public API:
///
///   - rota::nn        — layer / network model and the Table II workload zoo
///   - rota::arch      — accelerator configuration, energy, area, topology
///   - rota::sched     — the NeuroSpector-lite energy-optimal mapper
///   - rota::wear      — usage tracking, RWL math, policies, wear simulator
///   - rota::rel       — Weibull lifetime-reliability model
///   - rota::sim       — tile pipeline timing and the RWL+RO controller
///   - rota::obs       — metrics, Chrome-trace spans, run manifests
///   - rota::svc       — embeddable batch-request engine + schedule cache
///                       (src/svc; behind `rota serve`, not pulled in here)
///   - rota (core)     — Experiment: the one-call driver used by examples
///
/// Contract violations throw util::precondition_error; the batch service
/// (rota::svc) turns them into structured error replies.
///
/// Quickstart:
/// \code
///   rota::ExperimentConfig cfg;                 // 14×12 torus, 1000 iters
///   rota::Experiment exp(cfg);
///   const auto res = exp.run(rota::nn::make_squeezenet(),
///                            {rota::wear::PolicyKind::kBaseline,
///                             rota::wear::PolicyKind::kRwlRo});
///   const double gain = res.improvement_over_baseline(
///       rota::wear::PolicyKind::kRwlRo);        // ≈ Fig. 8
///   if (const rota::wear::PolicyRun* ro =
///           res.find_run(rota::wear::PolicyKind::kRwlRo)) {
///     /* ro->stats, ro->usage */
///   }
/// \endcode

#include "arch/area.hpp"
#include "arch/config.hpp"
#include "arch/energy.hpp"
#include "arch/topology.hpp"
#include "core/experiment.hpp"
#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "nn/workloads.hpp"
#include "obs/build_info.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "reliability/array_reliability.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/spares.hpp"
#include "reliability/weibull.hpp"
#include "sched/mapper.hpp"
#include "sched/rs_mapper.hpp"
#include "sched/schedule.hpp"
#include "sched/serialize.hpp"
#include "sim/controller.hpp"
#include "sim/engine.hpp"
#include "sim/noc_traffic.hpp"
#include "thermal/thermal.hpp"
#include "util/heatmap.hpp"
#include "util/table.hpp"
#include "wear/policy.hpp"
#include "wear/runner.hpp"
#include "wear/rwl_math.hpp"
#include "wear/simulator.hpp"
#include "wear/usage_tracker.hpp"
