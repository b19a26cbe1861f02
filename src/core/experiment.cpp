#include "core/experiment.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "util/check.hpp"

namespace rota {

const PolicyRun* ExperimentResult::find_run(
    wear::PolicyKind kind) const noexcept {
  for (const auto& r : runs) {
    if (r.kind == kind) return &r;
  }
  return nullptr;
}

double ExperimentResult::improvement_over_baseline(
    wear::PolicyKind kind) const {
  const PolicyRun* base_ptr = find_run(wear::PolicyKind::kBaseline);
  const PolicyRun* wl_ptr = find_run(kind);
  ROTA_REQUIRE(base_ptr != nullptr && wl_ptr != nullptr,
               "improvement_over_baseline requires both the baseline run "
               "and the " +
                   wear::to_string(kind) + " run to be present");
  const PolicyRun& base = *base_ptr;
  const PolicyRun& wl = *wl_ptr;
  std::vector<double> base_alphas;
  std::vector<double> wl_alphas;
  base_alphas.reserve(base.usage.size());
  wl_alphas.reserve(wl.usage.size());
  for (std::int64_t v : base.usage.cells())
    base_alphas.push_back(static_cast<double>(v));
  for (std::int64_t v : wl.usage.cells())
    wl_alphas.push_back(static_cast<double>(v));
  return rel::lifetime_improvement(base_alphas, wl_alphas, beta);
}

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)),
      mapper_(config_.accel, sched::ObjectiveSpec{}, {},
              sched::MapperOptions{true, config_.threads}) {
  config_.accel.validate();
  ROTA_REQUIRE(config_.iterations >= 0,
               "iteration count must be non-negative");
}

sched::NetworkSchedule Experiment::schedule(const nn::Network& net) {
  return mapper_.schedule_network(net);
}

std::vector<PolicyRun> Experiment::run_policies(
    const sched::NetworkSchedule& ns,
    const std::vector<wear::PolicyKind>& policies) {
  // Each cell owns its policy object and simulator; the shared schedule
  // is read-only, so cells are independent and results land in the slot
  // named by the policy's input position — identical for any lane count.
  std::vector<PolicyRun> runs(policies.size());
  par::parallel_for(
      static_cast<std::int64_t>(policies.size()), config_.threads,
      [this, &ns, &policies, &runs](std::int64_t i) {
        const wear::PolicyKind kind = policies[static_cast<std::size_t>(i)];
        const obs::TraceSpan policy_span(wear::to_string(kind),
                                         "experiment.policy");
        obs::MetricsRegistry::global().add("experiment.policy_runs");
        auto policy =
            wear::make_policy(kind, config_.accel.array_width,
                              config_.accel.array_height, config_.seed);
        wear::WearSimulator sim(config_.accel, {true, config_.metric});
        sim.run_iterations(ns, *policy, config_.iterations);
        PolicyRun run;
        run.kind = kind;
        run.policy_name = policy->name();
        run.usage = sim.tracker().usage();
        run.stats = sim.tracker().stats();
        runs[static_cast<std::size_t>(i)] = std::move(run);
      });
  return runs;
}

ExperimentResult Experiment::run(
    const nn::Network& net, const std::vector<wear::PolicyKind>& policies) {
  const obs::TraceSpan exp_span(net.abbr(), "experiment");
  ExperimentResult result;
  result.network_name = net.name();
  result.network_abbr = net.abbr();
  result.schedule = schedule(net);
  result.iterations = config_.iterations;
  result.beta = config_.beta;
  result.runs = run_policies(result.schedule, policies);
  return result;
}

ExperimentResult Experiment::run_mix(
    const std::vector<nn::Network>& mix,
    const std::vector<wear::PolicyKind>& policies) {
  ROTA_REQUIRE(!mix.empty(), "network mix must be non-empty");
  const obs::TraceSpan exp_span("mix", "experiment");

  // Concatenate the mix into one super-schedule: an "iteration" then means
  // one pass over every model, and layer transitions between models are
  // handled by the same RO relay as transitions inside a model.
  ExperimentResult result;
  sched::NetworkSchedule combined;
  combined.config = config_.accel;
  std::string names;
  std::string abbrs;
  for (const nn::Network& net : mix) {
    const sched::NetworkSchedule ns = schedule(net);
    for (const auto& layer : ns.layers) {
      combined.layers.push_back(layer);
      combined.layers.back().layer_name =
          net.abbr() + ":" + layer.layer_name;
    }
    names += (names.empty() ? "" : " + ") + net.name();
    abbrs += (abbrs.empty() ? "" : "+") + net.abbr();
  }
  combined.network_name = names;
  combined.network_abbr = abbrs;
  result.network_name = names;
  result.network_abbr = abbrs;
  result.schedule = std::move(combined);
  result.iterations = config_.iterations;
  result.beta = config_.beta;
  result.runs = run_policies(result.schedule, policies);
  return result;
}

std::vector<ExperimentResult> Experiment::run_sweep(
    const std::vector<nn::Network>& nets,
    const std::vector<wear::PolicyKind>& policies) {
  ROTA_REQUIRE(!nets.empty(), "sweep needs at least one network");
  const obs::TraceSpan sweep_span("sweep", "experiment");

  // Schedule every network first (schedule_network fans distinct shapes
  // out on its own, and the shared mapper memo carries shapes repeated
  // across networks), then flatten the policy×workload grid into
  // independent cells.
  std::vector<ExperimentResult> results(nets.size());
  for (std::size_t n = 0; n < nets.size(); ++n) {
    results[n].network_name = nets[n].name();
    results[n].network_abbr = nets[n].abbr();
    results[n].schedule = schedule(nets[n]);
    results[n].iterations = config_.iterations;
    results[n].beta = config_.beta;
    results[n].runs.resize(policies.size());
  }
  const std::int64_t cells =
      static_cast<std::int64_t>(nets.size() * policies.size());
  par::parallel_for(
      cells, config_.threads, [this, &policies, &results](std::int64_t cell) {
        const std::size_t n =
            static_cast<std::size_t>(cell) / policies.size();
        const std::size_t p =
            static_cast<std::size_t>(cell) % policies.size();
        const wear::PolicyKind kind = policies[p];
        const obs::TraceSpan policy_span(results[n].network_abbr + ":" +
                                             wear::to_string(kind),
                                         "experiment.policy");
        obs::MetricsRegistry::global().add("experiment.policy_runs");
        auto policy =
            wear::make_policy(kind, config_.accel.array_width,
                              config_.accel.array_height, config_.seed);
        wear::WearSimulator sim(config_.accel, {true, config_.metric});
        sim.run_iterations(results[n].schedule, *policy, config_.iterations);
        PolicyRun run;
        run.kind = kind;
        run.policy_name = policy->name();
        run.usage = sim.tracker().usage();
        run.stats = sim.tracker().stats();
        results[n].runs[p] = std::move(run);
      });
  return results;
}

std::vector<TransientSample> Experiment::run_transient(
    const nn::Network& net, wear::PolicyKind kind, std::int64_t iterations) {
  ROTA_REQUIRE(iterations >= 1, "transient run needs at least one iteration");
  const obs::TraceSpan span(net.abbr(), "experiment.transient");
  const sched::NetworkSchedule ns = schedule(net);

  // Baseline usage after one iteration; the baseline is iteration-linear
  // (same corner anchoring every pass), so iteration i's baseline usage is
  // i × the one-iteration counters.
  wear::WearSimulator base_sim(config_.accel, {true, config_.metric});
  auto base_policy =
      wear::make_policy(wear::PolicyKind::kBaseline, config_.accel.array_width,
                        config_.accel.array_height, config_.seed);
  base_sim.run_iteration(ns, *base_policy);
  const std::vector<double> base_once = base_sim.tracker().usage_as_doubles();

  auto policy = wear::make_policy(kind, config_.accel.array_width,
                                  config_.accel.array_height, config_.seed);
  wear::WearSimulator sim(config_.accel, {true, config_.metric});

  std::vector<TransientSample> samples;
  samples.reserve(static_cast<std::size_t>(iterations));
  sim.run_iterations(
      ns, *policy, iterations,
      [&](std::int64_t it, const wear::UsageTracker& tracker) {
        TransientSample s;
        s.iteration = it;
        const wear::UsageStats st = tracker.stats();
        s.max_usage_diff = st.max_diff;
        s.r_diff = st.r_diff;
        std::vector<double> base_now(base_once.size());
        for (std::size_t i = 0; i < base_once.size(); ++i)
          base_now[i] = base_once[i] * static_cast<double>(it);
        s.improvement = rel::lifetime_improvement(
            base_now, tracker.usage_as_doubles(), config_.beta);
        samples.push_back(s);
      });
  return samples;
}

}  // namespace rota
