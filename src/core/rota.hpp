#pragma once

/// \file rota.hpp
/// Umbrella header of the RoTA library. Including this gives the full
/// public API:
///
///   - rota::api::v1   — the versioned, non-throwing facade (api_v1.hpp):
///                       Result<T> returns, stable error codes, JSON
///                       envelopes stamped with schema_version. New
///                       integrations should target this surface.
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
/// Versioning and deprecation policy: the module namespaces above are the
/// historical throwing surface and remain supported for in-process use.
/// `rota::api::v1` wraps them without forking the implementation; it only
/// grows compatibly, and a breaking change opens `rota::api::v2` while v1
/// lives on for two releases. Members documented as deprecated are removed
/// with the next generation bump, never silently; the throwing
/// ExperimentResult::run is gone, and find_run is the one lookup.
///
/// Quickstart (v1 facade):
/// \code
///   namespace api = rota::api::v1;
///   rota::ExperimentConfig cfg;                 // 14×12 torus, 1000 iters
///   auto net = api::find_workload("Sqz");
///   auto res = api::run_experiment(cfg, net.value(),
///                                  {rota::wear::PolicyKind::kBaseline,
///                                   rota::wear::PolicyKind::kRwlRo});
///   auto gain = api::lifetime_improvement(
///       res.value(), rota::wear::PolicyKind::kRwlRo);  // ≈ Fig. 8
///   if (!gain.ok()) { /* gain.error().code, .message */ }
/// \endcode

#include "arch/area.hpp"
#include "arch/config.hpp"
#include "arch/energy.hpp"
#include "arch/topology.hpp"
#include "core/api_v1.hpp"
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
#include "wear/rwl_math.hpp"
#include "wear/trace.hpp"
#include "wear/simulator.hpp"
#include "wear/usage_tracker.hpp"
