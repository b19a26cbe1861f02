#pragma once

#include <string>
#include <vector>

/// \file table.hpp
/// Aligned text tables for the benchmark harness output. Every bench binary
/// prints the paper's rows/series through this class so output stays uniform.

namespace rota::util {

/// A simple column-aligned text table with a header row.
class TextTable {
 public:
  /// \param headers non-empty column names.
  explicit TextTable(std::vector<std::string> headers);

  /// Append a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows.
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Render with single-space-padded columns and a rule under the header.
  [[nodiscard]] std::string str() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (default 3 decimal places).
[[nodiscard]] std::string fmt(double value, int precision = 3);

/// Format a double with `digits` significant digits ("0.0005123",
/// "5.123e-07"), so values far below 1 keep their digits.
[[nodiscard]] std::string fmt_sig(double value, int digits = 4);

/// Format a value as a percentage ("55.8%"), precision in decimal places.
[[nodiscard]] std::string fmt_pct(double fraction, int precision = 1);

}  // namespace rota::util
