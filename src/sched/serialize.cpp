#include "sched/serialize.hpp"

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/encode.hpp"

namespace rota::sched {

namespace {

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (char ch : line) {
    if (ch == ',') {
      cells.push_back(cell);
      cell.clear();
    } else if (ch != '\r') {
      cell += ch;
    }
  }
  cells.push_back(cell);
  return cells;
}

std::int64_t to_int(const std::string& text, const std::string& what) {
  const auto v = util::parse_i64(text);
  ROTA_REQUIRE(v.has_value(),
               "expected an integer for " + what + ", got '" + text + "'");
  return *v;
}

double to_double(const std::string& text, const std::string& what) {
  const auto v = util::parse_f64(text);
  ROTA_REQUIRE(v.has_value(),
               "expected a number for " + what + ", got '" + text + "'");
  return *v;
}

}  // namespace

void write_schedule_csv(const NetworkSchedule& ns, std::ostream& out) {
  out << "layer,x,y,tiles,output_tiles,allocations_per_tile,reduction_steps,"
         "scatter_words,compute_macs_per_pe,gather_words,energy,cycles,"
         "macs\n";
  for (const auto& l : ns.layers) {
    ROTA_REQUIRE(l.layer_name.find_first_of(",\"\n") == std::string::npos,
                 "layer name not CSV-safe: " + l.layer_name);
    out << l.layer_name << ',' << l.space.x << ',' << l.space.y << ','
        << l.tiles << ',' << l.output_tiles << ',' << l.allocations_per_tile
        << ',' << l.reduction_steps << ',' << l.scatter_words << ','
        << l.compute_macs_per_pe << ',' << l.gather_words << ',' << l.energy
        << ',' << l.cycles << ',' << l.macs << '\n';
  }
}

NetworkSchedule read_schedule_csv(std::istream& in,
                                  const arch::AcceleratorConfig& cfg,
                                  const std::string& network_name,
                                  const std::string& network_abbr) {
  cfg.validate();
  NetworkSchedule ns;
  ns.network_name = network_name;
  ns.network_abbr = network_abbr;
  ns.config = cfg;

  std::string line;
  ROTA_REQUIRE(static_cast<bool>(std::getline(in, line)),
               "schedule CSV is empty");
  const std::vector<std::string> header = split_csv_line(line);
  std::map<std::string, std::size_t> col;
  for (std::size_t i = 0; i < header.size(); ++i) col[header[i]] = i;
  for (const char* required : {"layer", "x", "y", "tiles"}) {
    ROTA_REQUIRE(col.count(required) == 1,
                 std::string("schedule CSV is missing column '") + required +
                     "'");
  }

  auto cell = [&](const std::vector<std::string>& row, const char* name,
                  const std::string& fallback) -> std::string {
    auto it = col.find(name);
    if (it == col.end()) return fallback;
    ROTA_REQUIRE(it->second < row.size(),
                 std::string("row too short for column '") + name + "'");
    return row[it->second];
  };

  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;
    const std::vector<std::string> row = split_csv_line(line);
    const std::string where = "line " + std::to_string(line_no);

    LayerSchedule l;
    l.layer_name = cell(row, "layer", "");
    ROTA_REQUIRE(!l.layer_name.empty(), where + ": empty layer name");
    l.space.x = to_int(cell(row, "x", ""), where + " x");
    l.space.y = to_int(cell(row, "y", ""), where + " y");
    l.tiles = to_int(cell(row, "tiles", ""), where + " tiles");
    ROTA_REQUIRE(l.space.x >= 1 && l.space.x <= cfg.array_width,
                 where + ": x out of range for the array");
    ROTA_REQUIRE(l.space.y >= 1 && l.space.y <= cfg.array_height,
                 where + ": y out of range for the array");
    ROTA_REQUIRE(l.tiles >= 0, where + ": negative tile count");

    l.output_tiles = to_int(cell(row, "output_tiles",
                                 std::to_string(l.tiles)),
                            where + " output_tiles");
    l.allocations_per_tile = to_int(cell(row, "allocations_per_tile", "1"),
                                    where + " allocations_per_tile");
    l.reduction_steps =
        to_int(cell(row, "reduction_steps", "1"), where + " reduction_steps");
    l.scatter_words =
        to_int(cell(row, "scatter_words", "0"), where + " scatter_words");
    l.compute_macs_per_pe = to_int(cell(row, "compute_macs_per_pe", "1"),
                                   where + " compute_macs_per_pe");
    l.gather_words =
        to_int(cell(row, "gather_words", "0"), where + " gather_words");
    l.energy = to_double(cell(row, "energy", "0"), where + " energy");
    l.cycles = to_double(cell(row, "cycles", "0"), where + " cycles");
    l.macs = to_int(cell(row, "macs", "0"), where + " macs");
    l.shape_key = "csv:" + l.layer_name;
    ns.layers.push_back(std::move(l));
  }
  ROTA_REQUIRE(!ns.layers.empty(), "schedule CSV has no data rows");
  return ns;
}

}  // namespace rota::sched
