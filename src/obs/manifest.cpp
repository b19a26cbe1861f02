#include "obs/manifest.hpp"

#include <array>
#include <cstring>
#include <ctime>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "kern/kern.hpp"
#include "obs/build_info.hpp"
#include "obs/json.hpp"

namespace rota::obs {

namespace {

std::string utc_now_iso8601() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
#if defined(_WIN32)
  gmtime_s(&tm_utc, &now);
#else
  gmtime_r(&now, &tm_utc);
#endif
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

/// CPU brand string from CPUID (no file reads), "unknown" elsewhere.
std::string host_cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  const unsigned int max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    std::array<unsigned int, 12> regs{};
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs.data(), 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    while (!model.empty() && model.back() == ' ') model.pop_back();
    if (!model.empty()) return model;
  }
#endif
  return "unknown";
}

}  // namespace

std::string RunManifest::to_json() const {
  std::ostringstream os;
  os << '{' << "\"tool\":" << json_quote(tool)
     << ",\"command\":" << json_quote(command)
     << ",\"workload\":" << json_quote(workload)
     << ",\"policy\":" << json_quote(policy)
     << ",\"metric\":" << json_quote(metric)
     << ",\"array_width\":" << array_width
     << ",\"array_height\":" << array_height
     << ",\"iterations\":" << iterations << ",\"seed\":" << seed
     << ",\"version\":" << json_quote(version)
     << ",\"git_sha\":" << json_quote(git_sha)
     << ",\"build_type\":" << json_quote(build_type)
     << ",\"timestamp_utc\":" << json_quote(timestamp_utc)
     << ",\"wall_seconds\":" << json_number(wall_seconds) << ",\"extra\":{";
  bool first = true;
  for (const auto& [key, value] : extra) {
    if (!first) os << ',';
    first = false;
    os << json_quote(key) << ':' << json_quote(value);
  }
  os << "}}";
  return os.str();
}

RunManifest make_run_manifest(std::string tool, std::string command) {
  RunManifest m;
  m.tool = std::move(tool);
  m.command = std::move(command);
  m.version = version();
  m.git_sha = git_sha();
  m.build_type = build_type();
  m.timestamp_utc = utc_now_iso8601();
  // Which SIMD kernels this binary carries and which it actually runs
  // (DESIGN.md §14): results are bit-identical either way, but perf
  // numbers are only comparable between manifests that agree here.
  m.extra["kern.simd_compiled"] = std::string(kern::compiled_simd());
  m.extra["kern.simd_active"] = std::string(kern::isa_name(kern::active_isa()));
  // The host behind the wall times: serial timings only compare across
  // one CPU model, and Par/N scaling only up to the core count.
  m.extra["host.cores"] = std::to_string(std::thread::hardware_concurrency());
  m.extra["host.cpu_model"] = host_cpu_model();
  // Mapper objective provenance (DESIGN.md §15). "energy" is the
  // historical default; producers running another objective overwrite
  // this, and perf numbers are only comparable between manifests that
  // agree here (bench_compare.py skips gating on a mismatch).
  m.extra["objective.id"] = "energy";
  return m;
}

}  // namespace rota::obs
