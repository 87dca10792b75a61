// Plain-text and CSV table rendering for benchmark harness output.
//
// Every bench binary prints the rows/series of one of the paper's figures;
// Table keeps that output uniform and machine-consumable (CSV mode).
#pragma once

#include <string>
#include <vector>

namespace stats {

/// A simple column-aligned table. Cells are strings; numeric helpers format
/// with sensible precision. Rendering right-aligns numeric-looking cells.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Monospace rendering with a header underline.
  std::string to_text() const;

  /// RFC-4180-ish CSV (quotes cells containing commas or quotes).
  std::string to_csv() const;

  /// Format helpers used across bench binaries.
  static std::string num(double v, int precision = 2);
  static std::string mean_pm_std(double mean, double stddev, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace stats
