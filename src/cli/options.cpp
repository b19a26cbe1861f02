#include "cli/options.hpp"

#include <cstdlib>
#include <iterator>
#include <string_view>

#include "util/check.hpp"

namespace rota::cli {

namespace {

std::int64_t parse_positive_int(const std::string& text,
                                const std::string& flag) {
  ROTA_REQUIRE(!text.empty(), flag + " needs a value");
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  ROTA_REQUIRE(end != nullptr && *end == '\0' && v > 0,
               flag + " expects a positive integer, got '" + text + "'");
  return static_cast<std::int64_t>(v);
}

std::int64_t parse_non_negative_int(const std::string& text,
                                    const std::string& flag) {
  ROTA_REQUIRE(!text.empty(), flag + " needs a value");
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  ROTA_REQUIRE(end != nullptr && *end == '\0' && v >= 0,
               flag + " expects a non-negative integer, got '" + text + "'");
  return static_cast<std::int64_t>(v);
}

double parse_fraction(const std::string& text, const std::string& flag) {
  ROTA_REQUIRE(!text.empty(), flag + " needs a value");
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  ROTA_REQUIRE(end != nullptr && *end == '\0' && v > 0.0 && v <= 1.0,
               flag + " expects a fraction in (0, 1], got '" + text + "'");
  return v;
}

std::uint64_t parse_u64(const std::string& text, const std::string& flag) {
  ROTA_REQUIRE(!text.empty() && text[0] != '-', flag + " expects an unsigned "
               "integer, got '" + text + "'");
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  ROTA_REQUIRE(end != nullptr && *end == '\0',
               flag + " expects an unsigned integer, got '" + text + "'");
  return static_cast<std::uint64_t>(v);
}

/// Every flag the tool knows, for distinguishing "exists, wrong verb"
/// from "does not exist" in error messages.
constexpr std::string_view kAllFlags[] = {
    "--array",   "--iters",   "--spares",  "--policy",    "--metric",
    "--pgm",     "--csv",     "--schedule", "--seed",     "--mc",
    "--threads", "--trace",   "--progress",  "-v",
    "--verbose", "--cache-dir", "--cache-cap", "--batch", "--queue-cap",
    "--fault",   "--checkpoint", "--trials",  "--objective", "--json",
    "--stats-out", "--stats-interval", "--events",
    "--oblivious", "--retire", "--ckpt-every"};

/// The observability flags every working verb owns.
constexpr std::string_view kObsFlags[] = {
    "--trace", "--stats-out", "--stats-interval", "--events",
    "--progress", "-v", "--verbose"};

/// Flags owned by `verb` beyond the shared observability set. The scoping
/// mirrors what each cmd_* actually reads: a flag a verb would silently
/// ignore is rejected up front.
std::vector<std::string_view> owned_flags(Verb verb) {
  std::vector<std::string_view> flags;
  switch (verb) {
    case Verb::kHelp:
    case Verb::kVersion:
      return flags;  // no flags, not even observability
    case Verb::kWorkloads:
      break;
    case Verb::kSchedule:
      flags = {"--array", "--threads", "--csv", "--objective"};
      break;
    case Verb::kWear:
      flags = {"--array", "--iters", "--policy", "--metric", "--seed",
               "--schedule", "--pgm", "--threads"};
      break;
    case Verb::kLifetime:
      // No --policy: lifetime always compares all paper schemes.
      flags = {"--array", "--iters", "--metric", "--seed", "--spares",
               "--mc", "--threads"};
      break;
    case Verb::kArea:
      flags = {"--array"};
      break;
    case Verb::kThermal:
      flags = {"--array", "--iters", "--seed", "--threads"};
      break;
    case Verb::kServe:
      // Geometry travels inside each request, not on the command line.
      flags = {"--threads", "--cache-dir", "--cache-cap", "--batch",
               "--queue-cap"};
      break;
    case Verb::kSweep:
      // No workload argument: sweep always covers the whole Table II zoo.
      flags = {"--array", "--iters", "--metric", "--seed", "--csv",
               "--checkpoint", "--threads"};
      break;
    case Verb::kMc:
      flags = {"--array", "--iters", "--policy", "--metric", "--seed",
               "--trials", "--checkpoint", "--threads"};
      break;
    case Verb::kPareto:
      // Degraded-array search: --fault/--spares build the ArrayState the
      // fronts respect (permanent pe=U,V faults only; see fi::
      // array_state_from_faults).
      flags = {"--array", "--objective", "--fault", "--spares", "--threads",
               "--csv", "--json"};
      break;
    case Verb::kDegrade:
      flags = {"--array", "--iters", "--spares", "--policy", "--objective",
               "--seed", "--fault", "--threads", "--csv", "--checkpoint",
               "--ckpt-every", "--retire", "--oblivious", "--mc"};
      break;
  }
  flags.insert(flags.end(), std::begin(kObsFlags), std::end(kObsFlags));
  return flags;
}

template <typename Range>
bool contains(const Range& range, std::string_view flag) {
  for (std::string_view f : range) {
    if (f == flag) return true;
  }
  return false;
}

}  // namespace

std::string verb_name(Verb verb) {
  switch (verb) {
    case Verb::kHelp:
      return "help";
    case Verb::kVersion:
      return "version";
    case Verb::kWorkloads:
      return "workloads";
    case Verb::kSchedule:
      return "schedule";
    case Verb::kWear:
      return "wear";
    case Verb::kLifetime:
      return "lifetime";
    case Verb::kArea:
      return "area";
    case Verb::kThermal:
      return "thermal";
    case Verb::kServe:
      return "serve";
    case Verb::kSweep:
      return "sweep";
    case Verb::kMc:
      return "mc";
    case Verb::kPareto:
      return "pareto";
    case Verb::kDegrade:
      return "degrade";
  }
  ROTA_UNREACHABLE("unhandled Verb");
}

void parse_geometry(const std::string& text, std::int64_t& width,
                    std::int64_t& height) {
  const std::size_t x = text.find('x');
  ROTA_REQUIRE(x != std::string::npos && x > 0 && x + 1 < text.size(),
               "--array expects WxH (e.g. 14x12), got '" + text + "'");
  width = parse_positive_int(text.substr(0, x), "--array width");
  height = parse_positive_int(text.substr(x + 1), "--array height");
}

wear::PolicyKind parse_policy(const std::string& name) {
  for (wear::PolicyKind kind :
       {wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
        wear::PolicyKind::kRwlRo, wear::PolicyKind::kRandomStart,
        wear::PolicyKind::kDiagonalStride}) {
    if (wear::to_string(kind) == name) return kind;
  }
  ROTA_REQUIRE(false,
               "unknown policy '" + name +
                   "' (expected Baseline, RWL, RWL+RO, RandomStart or "
                   "DiagonalStride)");
  throw util::precondition_error("unreachable");
}

Options parse(const std::vector<std::string>& args) {
  Options opt;
  if (args.empty()) return opt;  // help
  for (std::size_t a = 0; a < args.size(); ++a)
    opt.raw_args += (a ? " " : "") + args[a];

  const std::string& verb = args[0];
  if (verb == "help" || verb == "--help" || verb == "-h") {
    opt.verb = Verb::kHelp;
  } else if (verb == "version" || verb == "--version" || verb == "-V") {
    opt.verb = Verb::kVersion;
  } else if (verb == "workloads") {
    opt.verb = Verb::kWorkloads;
  } else if (verb == "schedule") {
    opt.verb = Verb::kSchedule;
  } else if (verb == "wear") {
    opt.verb = Verb::kWear;
  } else if (verb == "lifetime") {
    opt.verb = Verb::kLifetime;
  } else if (verb == "area") {
    opt.verb = Verb::kArea;
  } else if (verb == "thermal") {
    opt.verb = Verb::kThermal;
  } else if (verb == "serve") {
    opt.verb = Verb::kServe;
  } else if (verb == "sweep") {
    opt.verb = Verb::kSweep;
  } else if (verb == "mc") {
    opt.verb = Verb::kMc;
  } else if (verb == "pareto") {
    opt.verb = Verb::kPareto;
  } else if (verb == "degrade") {
    opt.verb = Verb::kDegrade;
  } else {
    ROTA_REQUIRE(false, "unknown command '" + verb + "'\n" + usage());
  }

  // degrade routes faulted work through the spare pool, so its default
  // pool is non-empty (lifetime keeps 0 = the plain Eq. 3 array).
  if (opt.verb == Verb::kDegrade) {
    opt.spares = 4;
    opt.iterations = 512;
  }

  const bool wants_workload =
      opt.verb == Verb::kSchedule || opt.verb == Verb::kWear ||
      opt.verb == Verb::kLifetime || opt.verb == Verb::kThermal ||
      opt.verb == Verb::kMc ||
      opt.verb == Verb::kPareto || opt.verb == Verb::kDegrade;
  std::size_t i = 1;
  if (wants_workload && args.size() > 1 && args[1].rfind("--", 0) != 0) {
    opt.workload = args[1];
    i = 2;
  }

  auto value_of = [&](const std::string& flag) -> std::string {
    ROTA_REQUIRE(i + 1 < args.size(), flag + " needs a value");
    return args[++i];
  };

  const std::vector<std::string_view> owned = owned_flags(opt.verb);
  for (; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (!contains(owned, flag)) {
      if (contains(kAllFlags, flag)) {
        ROTA_REQUIRE(false, "option '" + flag +
                                "' is not accepted by 'rota " +
                                verb_name(opt.verb) +
                                "' (see 'rota help' for the flags each "
                                "command owns)");
      }
      ROTA_REQUIRE(false, "unknown option '" + flag + "' for 'rota " +
                              verb_name(opt.verb) + "'\n" + usage());
    }
    if (flag == "--array") {
      parse_geometry(value_of(flag), opt.array_width, opt.array_height);
    } else if (flag == "--iters") {
      opt.iterations = parse_positive_int(value_of(flag), flag);
    } else if (flag == "--spares") {
      opt.spares = parse_non_negative_int(value_of(flag), flag);
    } else if (flag == "--policy") {
      opt.policy = parse_policy(value_of(flag));
    } else if (flag == "--metric") {
      const std::string m = value_of(flag);
      if (m == "alloc") {
        opt.metric = wear::WearMetric::kAllocations;
      } else if (m == "cycles") {
        opt.metric = wear::WearMetric::kActiveCycles;
      } else {
        ROTA_REQUIRE(false, "--metric expects 'alloc' or 'cycles', got '" +
                                m + "'");
      }
    } else if (flag == "--pgm") {
      opt.pgm_path = value_of(flag);
    } else if (flag == "--csv") {
      opt.csv_out_path = value_of(flag);
    } else if (flag == "--schedule") {
      opt.schedule_path = value_of(flag);
    } else if (flag == "--seed") {
      opt.seed = parse_u64(value_of(flag), flag);
    } else if (flag == "--mc") {
      opt.mc_trials = parse_non_negative_int(value_of(flag), flag);
    } else if (flag == "--threads") {
      opt.threads = parse_non_negative_int(value_of(flag), flag);
    } else if (flag == "--trace") {
      opt.trace_path = value_of(flag);
    } else if (flag == "--stats-out") {
      opt.stats_out_path = value_of(flag);
      ROTA_REQUIRE(!opt.stats_out_path.empty(),
                   "--stats-out needs a file path");
    } else if (flag == "--stats-interval") {
      opt.stats_interval_ms = parse_positive_int(value_of(flag), flag);
    } else if (flag == "--events") {
      opt.events_path = value_of(flag);
      ROTA_REQUIRE(!opt.events_path.empty(), "--events needs a file path");
    } else if (flag == "--cache-dir") {
      opt.cache_dir = value_of(flag);
    } else if (flag == "--cache-cap") {
      opt.cache_capacity = parse_positive_int(value_of(flag), flag);
    } else if (flag == "--batch") {
      opt.max_batch = parse_positive_int(value_of(flag), flag);
    } else if (flag == "--queue-cap") {
      opt.queue_cap = parse_non_negative_int(value_of(flag), flag);
    } else if (flag == "--fault") {
      opt.faults.push_back(value_of(flag));
    } else if (flag == "--checkpoint") {
      opt.checkpoint_path = value_of(flag);
      ROTA_REQUIRE(!opt.checkpoint_path.empty(),
                   "--checkpoint needs a file path");
    } else if (flag == "--trials") {
      opt.trials = parse_positive_int(value_of(flag), flag);
    } else if (flag == "--objective") {
      opt.objective = value_of(flag);
      ROTA_REQUIRE(!opt.objective.empty(), "--objective needs a value");
    } else if (flag == "--json") {
      opt.json_out_path = value_of(flag);
      ROTA_REQUIRE(!opt.json_out_path.empty(), "--json needs a file path");
    } else if (flag == "--oblivious") {
      opt.oblivious = true;
    } else if (flag == "--retire") {
      opt.retire_fraction = parse_fraction(value_of(flag), flag);
    } else if (flag == "--ckpt-every") {
      opt.checkpoint_every = parse_positive_int(value_of(flag), flag);
    } else if (flag == "--progress") {
      opt.progress = true;
    } else if (flag == "--verbose" || flag == "-v") {
      opt.verbose = true;
    } else {
      ROTA_UNREACHABLE("flag '" + flag + "' owned but not handled");
    }
  }

  ROTA_REQUIRE(opt.stats_interval_ms == 0 || !opt.stats_out_path.empty(),
               "--stats-interval requires --stats-out FILE (where the "
               "periodic snapshots land)");

  if (wants_workload) {
    const bool has_source = !opt.workload.empty() ||
                            (opt.verb == Verb::kWear &&
                             !opt.schedule_path.empty());
    ROTA_REQUIRE(has_source,
                 std::string(verb) +
                     " needs a workload abbreviation (see 'rota workloads')"
                     " or, for wear, --schedule FILE");
  }
  return opt;
}

std::string usage() {
  return
      "rota — RoTA wear-leveling toolkit (DATE 2025 reproduction)\n"
      "\n"
      "usage: rota <command> [workload] [flags]\n"
      "\n"
      "Every command owns its own flag set and rejects the rest; the\n"
      "observability flags at the bottom work with every command.\n"
      "\n"
      "commands and their flags:\n"
      "  workloads                 list the Table II workload zoo\n"
      "  schedule <abbr>           energy-optimal per-layer utilization "
      "spaces\n"
      "    --array WxH             PE array geometry (default 14x12)\n"
      "    --csv FILE              also export the schedule as CSV\n"
      "    --objective SPEC        mapper objective: energy (default) |\n"
      "                            lifetime | throughput |\n"
      "                            weighted:<w1>,<w2>,<w3>\n"
      "    --threads N             worker lanes (see below)\n"
      "  wear <abbr>               run the wear simulator, print stats + "
      "heatmap\n"
      "    --array WxH  --iters N  geometry / inference iterations\n"
      "    --policy NAME           Baseline | RWL | RWL+RO | RandomStart |\n"
      "                            DiagonalStride (default RWL+RO)\n"
      "    --metric alloc|cycles   wear accounting (default alloc)\n"
      "    --schedule FILE         drive the simulator with an imported\n"
      "                            schedule CSV (layer,x,y,tiles columns)\n"
      "    --pgm FILE              write the wear heatmap as a PGM image\n"
      "    --seed N  --threads N   stochastic-policy seed / worker lanes\n"
      "  lifetime <abbr>           lifetime improvement of all schemes\n"
      "    --array WxH  --iters N  geometry / inference iterations\n"
      "    --metric alloc|cycles   wear accounting (default alloc)\n"
      "    --spares N              tolerated PE failures (default 0)\n"
      "    --mc N                  cross-check the closed-form MTTF with N\n"
      "                            Monte-Carlo trials (default off)\n"
      "    --seed N  --threads N   Monte-Carlo seed / worker lanes\n"
      "  area                      area breakdown and torus overhead\n"
      "    --array WxH             PE array geometry (default 14x12)\n"
      "  thermal <abbr>            temperature fields and thermally-coupled\n"
      "                            lifetime gain (extension)\n"
      "    --array WxH  --iters N  --seed N  --threads N\n"
      "  serve                     JSON-lines batch service on stdin/stdout\n"
      "                            (one request object per line; ops ping,\n"
      "                            schedule, wear, lifetime, stats,\n"
      "                            shutdown; see README)\n"
      "    --threads N             concurrent requests per batch (default "
      "1)\n"
      "    --cache-dir DIR         on-disk schedule-cache tier (default "
      "off)\n"
      "    --cache-cap N           in-memory schedule-cache entries "
      "(default\n"
      "                            4096)\n"
      "    --batch N               flush replies at least every N requests\n"
      "    --queue-cap N           shed requests beyond N queued (default\n"
      "                            0 = unbounded)\n"
      "  degrade <abbr>            degraded-mode lifetime: in-run faults,\n"
      "                            live spare remapping, fault-aware\n"
      "                            rescheduling and masked wear rotation;\n"
      "                            exits 5 when the array retires\n"
      "    --array WxH  --iters N  geometry / inference iterations (default\n"
      "                            512)\n"
      "    --spares N              spare-pool size (default 4)\n"
      "    --policy NAME           wear policy, masked to live PEs\n"
      "    --objective SPEC        mapper objective for every (re)schedule\n"
      "    --fault SPEC            repeatable; pe=U,V@ITER[+K] |\n"
      "                            rank=R@ITER | weibull=N\n"
      "    --oblivious             fail-stop baseline: never reschedule or\n"
      "                            mask (for fault-aware-vs-oblivious\n"
      "                            comparisons)\n"
      "    --retire F              retire once live PEs drop below this\n"
      "                            fraction of the array (default 0.75)\n"
      "    --mc N                  cross-check the residual MTTF with N\n"
      "                            Monte-Carlo trials (default off)\n"
      "    --csv FILE              write the deterministic timeline CSV\n"
      "    --checkpoint FILE       save/resume the run (byte-identical,\n"
      "                            even mid-remap); --ckpt-every N sets "
      "the\n"
      "                            autosave cadence (default 64)\n"
      "    --seed N  --threads N   fault sampling seed / mapper lanes\n"
      "  sweep                     every workload x policy cell, CSV out\n"
      "    --array WxH  --iters N  geometry / inference iterations\n"
      "    --metric alloc|cycles   wear accounting (default alloc)\n"
      "    --csv FILE              write the result CSV here (default "
      "stdout)\n"
      "    --checkpoint FILE       save progress per workload; resume from\n"
      "                            the file if it exists (bit-identical)\n"
      "    --seed N  --threads N   policy seed / worker lanes\n"
      "  mc <abbr>                 Monte-Carlo MTTF of one workload+policy\n"
      "    --array WxH  --iters N  geometry / inference iterations\n"
      "    --policy NAME           wear policy (default RWL+RO)\n"
      "    --metric alloc|cycles   wear accounting (default alloc)\n"
      "    --trials N              Monte-Carlo trials (default 100000)\n"
      "    --checkpoint FILE       save moments per step; resume from the\n"
      "                            file if it exists (bit-identical)\n"
      "    --seed N  --threads N   sampling seed / worker lanes\n"
      "  pareto <abbr>             per-layer Pareto fronts over (energy,\n"
      "                            projected MTTF, cycles), with the\n"
      "                            --objective-selected member flagged\n"
      "    --array WxH             PE array geometry (default 14x12)\n"
      "    --objective SPEC        energy | lifetime | throughput |\n"
      "                            weighted:<w1>,<w2>,<w3> (default energy)\n"
      "    --fault SPEC            repeatable; permanent pe=U,V@ITER faults\n"
      "                            folded into the degraded array the "
      "fronts\n"
      "                            respect\n"
      "    --spares N              spares absorbing --fault PEs (default "
      "0)\n"
      "    --csv FILE              write the fronts as CSV (bit-exact "
      "hexfloat\n"
      "                            columns)\n"
      "    --json FILE             write the {manifest, pareto} JSON "
      "envelope\n"
      "    --threads N             worker lanes (bit-identical results)\n"
      "  version                   build identity (version, git SHA, type)\n"
      "  help                      this text\n"
      "\n"
      "  --threads N everywhere: 1 = serial (default), 0 = one lane per\n"
      "  hardware thread; results are identical for any value, only wall\n"
      "  time changes.\n"
      "\n"
      "observability (any working command):\n"
      "  --trace FILE              write a Chrome trace-event JSON "
      "(Perfetto)\n"
      "  --stats-out FILE          {manifest, metrics} snapshot JSON (an\n"
      "                            OpenMetrics twin lands next to it as\n"
      "                            FILE with .om extension); written\n"
      "                            atomically at exit, and periodically "
      "with\n"
      "                            --stats-interval\n"
      "  --stats-interval MS       publish the snapshot every MS "
      "milliseconds\n"
      "                            on a sampler thread (requires "
      "--stats-out)\n"
      "  --events FILE             structured JSON-lines event log "
      "(rotated\n"
      "                            at 1 MiB; FILE.1 keeps one generation)\n"
      "  --progress                ETA progress on stderr (TTY only; with\n"
      "                            --events, non-TTY runs heartbeat "
      "through\n"
      "                            the event log instead)\n"
      "  -v, --verbose             print the collected metrics table\n"
      "\n"
      "signals (serve, sweep, mc, degrade): the first SIGINT/SIGTERM\n"
      "drains, saves any --checkpoint and exits 4; a second signal\n"
      "force-exits (130). degrade exits 5 when the array retires.\n"
      "ROTA_FI=read=0.1,corrupt=0.05,... arms software fault injection\n"
      "(see README).\n";
}

}  // namespace rota::cli
