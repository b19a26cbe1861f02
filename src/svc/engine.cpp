#include "svc/engine.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "arch/config.hpp"
#include "fi/hooks.hpp"
#include "nn/workloads.hpp"
#include "obs/event_log.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "reliability/array_reliability.hpp"
#include "util/check.hpp"
#include "wear/runner.hpp"

namespace rota::svc {

namespace {

using util::ErrorCode;

arch::AcceleratorConfig accel_of(const Request& req) {
  arch::AcceleratorConfig cfg = arch::rota_like();
  cfg.array_width = req.array_width;
  cfg.array_height = req.array_height;
  cfg.validate();
  return cfg;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The request's mapper objective. parse_request already validated and
/// canonicalized the field, so a failure here is a programming error
/// surfaced by the catch chain as invalid_argument.
sched::ObjectiveSpec objective_of(const Request& request) {
  auto spec = sched::parse_objective(request.objective);
  ROTA_REQUIRE(spec.ok(), "invalid request objective '" + request.objective +
                              "': " + spec.error().message);
  return spec.value();
}

std::string payload_schedule(const sched::NetworkSchedule& ns,
                             const sched::ObjectiveSpec& objective) {
  std::ostringstream os;
  os << "{\"workload\":" << obs::json_quote(ns.network_abbr)
     << ",\"objective\":" << obs::json_quote(objective.id())
     << ",\"layers\":" << ns.layers.size()
     << ",\"total_tiles\":" << ns.total_tiles()
     << ",\"mean_utilization\":" << obs::json_number(ns.mean_utilization())
     << ",\"total_energy\":" << obs::json_number(ns.total_energy())
     << ",\"total_cycles\":" << obs::json_number(ns.total_cycles()) << '}';
  return os.str();
}

std::string json_stats(const wear::UsageStats& stats) {
  std::ostringstream os;
  os << "{\"min\":" << stats.min << ",\"max\":" << stats.max
     << ",\"d_max\":" << stats.max_diff
     << ",\"r_diff\":" << obs::json_number(stats.r_diff)
     << ",\"mean\":" << obs::json_number(stats.mean) << '}';
  return os.str();
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)), cache_(options_.cache) {
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  {
    const util::MutexLock lock(mu_);
    if (stopping_ && !dispatcher_.joinable()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::future<Response> Engine::submit(Request request) {
  Job job;
  job.request = std::move(request);
  job.request.seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  job.submitted = std::chrono::steady_clock::now();
  std::future<Response> future = job.promise.get_future();
  std::size_t depth = 0;
  {
    const util::MutexLock lock(mu_);
    if (stopping_) {
      Response refused;
      refused.id = job.request.id;
      refused.seq = job.request.seq;
      refused.error = {ErrorCode::kUnavailable,
                       "engine is shutting down; request not accepted"};
      job.promise.set_value(std::move(refused));
      return future;
    }
    if (options_.max_queue > 0 && queue_.size() >= options_.max_queue) {
      // Shed, never drop: the caller gets a structured overloaded reply
      // immediately and can back off and retry.
      shed_count_.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry::global().add("svc.requests_shed");
      obs::log_event(obs::Severity::kWarn, "svc",
                     "request shed: queue is full (" +
                         std::to_string(options_.max_queue) + " waiting)",
                     job.request.seq, job.request.id);
      Response shed;
      shed.id = job.request.id;
      shed.seq = job.request.seq;
      shed.error = {ErrorCode::kOverloaded,
                    "queue is full (" + std::to_string(options_.max_queue) +
                        " requests waiting); retry after backoff"};
      job.promise.set_value(std::move(shed));
      return future;
    }
    queue_.push_back(std::move(job));
    depth = queue_.size();
  }
  obs::MetricsRegistry::global().gauge("svc.queue_depth",
                                       static_cast<double>(depth));
  cv_.notify_one();
  return future;
}

void Engine::dispatcher_loop() {
  for (;;) {
    std::vector<Job> batch;
    {
      util::MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock, mu_);
      if (queue_.empty()) return;  // stopping_ && drained
      batch.reserve(queue_.size());
      while (!queue_.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    obs::MetricsRegistry::global().add("svc.batches");
    obs::MetricsRegistry::global().gauge("svc.queue_depth", 0.0);
    // Fan the batch out; each job lands in its own promise, so reply
    // routing is index-stable regardless of lane count (DESIGN.md §9).
    par::parallel_for(static_cast<std::int64_t>(batch.size()),
                      options_.threads, [this, &batch](std::int64_t i) {
                        Job& job = batch[static_cast<std::size_t>(i)];
                        job.promise.set_value(run_job(job));
                      });
  }
}

Response Engine::run_job(Job& job) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const Request& req = job.request;
  // Queue-wait phase ends the moment a worker picks the job up; cancelled
  // and expired requests waited just the same, so they are observed too.
  metrics.observe("svc.queue_wait_ms", seconds_since(job.submitted) * 1e3);
  const auto finish = [&](Response resp) {
    resp.seq = req.seq;
    resp.done_at = std::chrono::steady_clock::now();
    return resp;
  };
  if (req.cancel && req.cancel->load()) {
    metrics.add("svc.requests_cancelled");
    Response resp;
    resp.id = req.id;
    resp.error = {ErrorCode::kCancelled,
                  "request was cancelled while queued"};
    return finish(std::move(resp));
  }
  const std::int64_t deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : options_.default_deadline_ms;
  if (deadline_ms > 0) {
    const double queued_ms = seconds_since(job.submitted) * 1e3;
    if (queued_ms > static_cast<double>(deadline_ms)) {
      metrics.add("svc.requests_expired");
      Response resp;
      resp.id = req.id;
      resp.error = {ErrorCode::kDeadlineExceeded,
                    "deadline of " + std::to_string(deadline_ms) +
                        " ms expired while the request was queued"};
      return finish(std::move(resp));
    }
  }
  // The counter always pairs inc/dec; gauge() itself is the no-op when
  // observability is off.
  metrics.gauge("svc.inflight", static_cast<double>(
      inflight_.fetch_add(1, std::memory_order_relaxed) + 1));
  const auto compute_start = std::chrono::steady_clock::now();
  Response resp = execute(req);
  metrics.observe("svc.compute_ms", seconds_since(compute_start) * 1e3);
  metrics.gauge("svc.inflight", static_cast<double>(
      inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));
  return finish(std::move(resp));
}

Response Engine::execute(const Request& request) {
  const auto start = std::chrono::steady_clock::now();
  obs::TraceSpan span(std::string(to_string(request.op)), "svc.request");
  span.set_request(request.seq);
  obs::MetricsRegistry::global().add("svc.requests_total");

  Response resp;
  resp.id = request.id;
  resp.seq = request.seq;
  try {
    // Injected allocation failure (fi): compute ops only, so protocol
    // control (ping/stats/shutdown) stays reachable under heavy fault
    // rates — an operator must be able to scrape a snapshot of a sick
    // server.
    if (request.op != RequestOp::kPing && request.op != RequestOp::kStats &&
        request.op != RequestOp::kShutdown &&
        fi::Hooks::should_fail_alloc("svc.engine")) {
      throw std::bad_alloc();
    }
    switch (request.op) {
      case RequestOp::kPing:
        resp.payload_json = "{\"pong\":true}";
        break;
      case RequestOp::kShutdown:
        resp.payload_json = "{\"stopping\":true}";
        break;
      case RequestOp::kStats: {
        std::string snap = obs::snapshot_json(obs::capture_snapshot(
            obs::MetricsRegistry::global(),
            stats_seq_.fetch_add(1, std::memory_order_relaxed) + 1));
        while (!snap.empty() && snap.back() == '\n') snap.pop_back();
        resp.payload_json = std::move(snap);
        break;
      }
      case RequestOp::kSchedule: {
        const nn::Network net = nn::workload_by_abbr(request.workload);
        const arch::AcceleratorConfig accel = accel_of(request);
        const sched::ObjectiveSpec objective = objective_of(request);
        sched::Mapper mapper(accel, objective, {},
                             sched::MapperOptions{true, 1});
        resp.payload_json = payload_schedule(
            cached_schedule_network(mapper, net, cache_), objective);
        break;
      }
      case RequestOp::kWear: {
        const nn::Network net = nn::workload_by_abbr(request.workload);
        const arch::AcceleratorConfig accel = accel_of(request);
        sched::Mapper mapper(accel, objective_of(request), {},
                             sched::MapperOptions{true, 1});
        const sched::NetworkSchedule ns =
            cached_schedule_network(mapper, net, cache_);
        const wear::PolicyRun run =
            wear::run_policy(accel, ns, request.policy, request.iterations,
                             request.metric, request.seed);
        std::ostringstream os;
        os << "{\"workload\":" << obs::json_quote(net.abbr())
           << ",\"policy\":" << obs::json_quote(run.policy_name)
           << ",\"iters\":" << request.iterations
           << ",\"stats\":" << json_stats(run.stats) << '}';
        resp.payload_json = os.str();
        break;
      }
      case RequestOp::kLifetime: {
        const nn::Network net = nn::workload_by_abbr(request.workload);
        const arch::AcceleratorConfig accel = accel_of(request);
        sched::Mapper mapper(accel, objective_of(request), {},
                             sched::MapperOptions{true, 1});
        const sched::NetworkSchedule ns =
            cached_schedule_network(mapper, net, cache_);
        std::vector<wear::PolicyRun> runs;
        for (wear::PolicyKind kind :
             {wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
              wear::PolicyKind::kRwlRo}) {
          runs.push_back(wear::run_policy(accel, ns, kind,
                                          request.iterations, request.metric,
                                          request.seed));
        }
        const std::vector<double> base_alphas =
            wear::usage_alphas(runs.front().usage);
        std::ostringstream os;
        os << "{\"workload\":" << obs::json_quote(net.abbr())
           << ",\"iters\":" << request.iterations << ",\"runs\":[";
        for (std::size_t i = 0; i < runs.size(); ++i) {
          const double gain = rel::lifetime_improvement(
              base_alphas, wear::usage_alphas(runs[i].usage),
              rel::kJedecShape);
          os << (i == 0 ? "" : ",") << "{\"policy\":"
             << obs::json_quote(runs[i].policy_name)
             << ",\"improvement\":" << obs::json_number(gain)
             << ",\"stats\":" << json_stats(runs[i].stats) << '}';
        }
        os << "]}";
        resp.payload_json = os.str();
        break;
      }
    }
    resp.ok = true;
  } catch (const util::precondition_error& e) {
    resp.error = {ErrorCode::kInvalidArgument, e.what()};
  } catch (const util::io_error& e) {
    resp.error = {ErrorCode::kIo, e.what()};
  } catch (const std::bad_alloc&) {
    // One request's allocation failure (real or injected) is that
    // request's problem, not the process's.
    resp.error = {ErrorCode::kResourceExhausted,
                  "allocation failed while executing the request"};
  } catch (const std::exception& e) {
    resp.error = {ErrorCode::kInternal, e.what()};
  }
  if (!resp.ok) obs::MetricsRegistry::global().add("svc.requests_failed");
  resp.wall_seconds = seconds_since(start);
  obs::MetricsRegistry::global().observe("svc.request_seconds",
                                         resp.wall_seconds);
  return resp;
}

int Engine::serve(std::istream& in, std::ostream& out,
                  const std::atomic<bool>* interrupt) {
  // Pending replies for one flush window, in input order. A parse
  // failure is answered in place (no job), so ordering never depends on
  // whether a line was valid.
  struct Pending {
    bool immediate = false;
    Response response;
    std::future<Response> future;
  };
  std::vector<Pending> window;
  window.reserve(options_.max_batch);

  const auto flush = [&] {
    for (Pending& p : window) {
      const Response& resp = p.immediate ? p.response
                                         : (p.response = p.future.get());
      out << to_json(resp) << '\n';
    }
    out.flush();
    // Reply phase: compute finished (done_at) -> reply on the wire. The
    // post-flush instant is shared by the window, so ordering cost shows
    // up in the earlier replies' samples — exactly what a client sees.
    const auto flushed = std::chrono::steady_clock::now();
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) {
      for (const Pending& p : window) {
        if (p.response.done_at.time_since_epoch().count() == 0) continue;
        metrics.observe(
            "svc.reply_ms",
            std::chrono::duration<double>(flushed - p.response.done_at)
                    .count() *
                1e3);
      }
    }
    window.clear();
  };

  const auto interrupted = [&] {
    return interrupt != nullptr && interrupt->load(std::memory_order_relaxed);
  };
  bool stop_requested = false;
  std::string line;
  while (!stop_requested && !interrupted() && std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = parse_request(line, options_.max_request_bytes);
    if (!parsed.ok()) {
      obs::MetricsRegistry::global().add("svc.requests_rejected");
      Pending p;
      p.immediate = true;
      p.response.id = salvage_request_id(line);
      p.response.error = parsed.error();
      window.push_back(std::move(p));
    } else {
      Request req = std::move(parsed).take();
      stop_requested = req.op == RequestOp::kShutdown;
      Pending p;
      p.future = submit(std::move(req));
      window.push_back(std::move(p));
    }
    if (window.size() >= options_.max_batch) flush();
  }
  // Graceful drain (EOF, op=shutdown or a signal): every request read so
  // far is answered and flushed before the loop returns.
  flush();
  shutdown();
  if (interrupted()) {
    obs::MetricsRegistry::global().add("svc.serve_interrupted");
    obs::log_event(obs::Severity::kWarn, "svc",
                   "serve loop interrupted; accepted requests drained");
    return 4;  // cli::kExitInterrupted: drained cleanly after a signal
  }
  return 0;
}

}  // namespace rota::svc
