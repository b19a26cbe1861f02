#include "util/table.hpp"

#include <iomanip>
#include <sstream>

#include "util/check.hpp"

namespace rota::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  ROTA_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  ROTA_REQUIRE(cells.size() == headers_.size(),
               "row width must match header width");
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      os << (c + 1 == row.size() ? "\n" : "  ");
    }
  };
  emit_row(headers_);
  std::size_t rule_len = 0;
  for (std::size_t wcol : widths) rule_len += wcol + 2;
  os << std::string(rule_len > 2 ? rule_len - 2 : rule_len, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string fmt_sig(double value, int digits) {
  std::ostringstream os;
  os << std::setprecision(digits) << value;
  return os.str();
}

std::string fmt_pct(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << fraction * 100.0 << '%';
  return os.str();
}

}  // namespace rota::util
