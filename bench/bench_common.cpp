#include "bench_common.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "obs/json.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/io.hpp"

namespace rota::bench {

std::string take_json_path(int& argc, char** argv) {
  std::string path;
  int write = 1;
  for (int read = 1; read < argc; ++read) {
    const std::string arg = argv[read];
    if (arg == "--json" && read + 1 < argc) {
      path = argv[++read];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    } else {
      argv[write++] = argv[read];
    }
  }
  argc = write;
  if (path.empty()) {
    if (const char* env = std::getenv("ROTA_BENCH_JSON")) path = env;
  }
  return path;
}

void write_bench_json(const std::string& path, const obs::RunManifest& manifest,
                      const std::vector<BenchRecord>& records) {
  std::ostringstream out;
  out << "{\"schema_version\":" << obs::kSchemaVersion
      << ",\"manifest\":" << manifest.to_json() << ",\"metrics\":{";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& rec = records[i];
    if (i != 0) out << ',';
    out << obs::json_quote(rec.name) << ":{\"type\":\"timing\",\"value_ms\":"
        << obs::json_number(rec.real_ms)
        << ",\"cpu_ms\":" << obs::json_number(rec.cpu_ms)
        << ",\"iterations\":" << rec.iterations << '}';
  }
  out << "}}\n";
  util::write_text_file(path, out.str());
}

void banner(const std::string& experiment_id, const std::string& title) {
  std::cout << "\n=== " << experiment_id << ": " << title << " ===\n"
            << "RoTA reproduction (DATE 2025); see EXPERIMENTS.md for "
               "paper-vs-measured notes.\n\n";
}

void emit(const util::TextTable& table,
          const std::vector<std::string>& csv_header,
          const std::vector<std::vector<std::string>>& csv_rows) {
  std::cout << table.str() << "\ncsv:\n";
  util::CsvWriter csv(std::cout, csv_header);
  for (const auto& row : csv_rows) csv.row(row);
  std::cout << '\n';
}

std::vector<sched::NetworkSchedule> schedule_all_workloads(
    const arch::AcceleratorConfig& cfg) {
  sched::Mapper mapper(cfg, sched::ObjectiveSpec{});
  std::vector<sched::NetworkSchedule> schedules;
  for (const auto& net : nn::all_workloads()) {
    schedules.push_back(mapper.schedule_network(net));
  }
  return schedules;
}

const std::vector<wear::PolicyKind>& paper_policies() {
  static const std::vector<wear::PolicyKind> kPolicies = {
      wear::PolicyKind::kBaseline, wear::PolicyKind::kRwl,
      wear::PolicyKind::kRwlRo};
  return kPolicies;
}

const wear::PolicyRun& run_of(const ExperimentResult& result,
                        wear::PolicyKind kind) {
  const wear::PolicyRun* run = result.find_run(kind);
  ROTA_ENSURE(run != nullptr, "bench requested the " + wear::to_string(kind) +
                                  " run but the experiment did not include it");
  return *run;
}

}  // namespace rota::bench
