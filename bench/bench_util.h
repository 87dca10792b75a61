// Shared rendering helpers for the per-figure bench binaries.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/export.h"
#include "core/figures.h"
#include "stats/table.h"

namespace benchutil {

inline void print_header(const char* figure, const char* description) {
  std::printf("=== %s ===\n%s\n\n", figure, description);
}

inline void note_export(const std::optional<std::string>& path) {
  if (path) {
    std::printf("(csv written to %s)\n\n", path->c_str());
  }
}

inline void print_bars(const std::vector<core::Bar>& bars, const char* unit,
                       int precision = 1, const char* export_id = nullptr) {
  stats::Table table({"platform", std::string("mean (") + unit + ")",
                      "stddev", "note"});
  for (const auto& bar : bars) {
    if (bar.excluded) {
      table.add_row({bar.platform, "-", "-",
                     "excluded: " + bar.exclusion_reason});
    } else {
      table.add_row({bar.platform, stats::Table::num(bar.mean, precision),
                     stats::Table::num(bar.stddev, precision), ""});
    }
  }
  std::printf("%s\n", table.to_text().c_str());
  if (export_id != nullptr) {
    note_export(core::export_bars(export_id, bars, unit));
  }
}

inline void print_cdfs(const std::vector<core::CdfSeries>& series,
                       const char* export_id = nullptr) {
  stats::Table table({"platform", "p10 (ms)", "p50 (ms)", "p90 (ms)",
                      "p99 (ms)"});
  for (const auto& s : series) {
    const auto [p10, p50, p90, p99] =
        s.samples_ms.percentiles({10, 50, 90, 99});
    table.add_row({s.platform, stats::Table::num(p10), stats::Table::num(p50),
                   stats::Table::num(p90), stats::Table::num(p99)});
  }
  std::printf("%s\n", table.to_text().c_str());
  // Compact CDF series (10 points each), the figure's actual content.
  for (const auto& s : series) {
    std::printf("cdf %-24s", s.platform.c_str());
    for (const auto& pt : s.samples_ms.cdf(10)) {
      std::printf(" %.0fms:%.2f", pt.value, pt.fraction);
    }
    std::printf("\n");
  }
  std::printf("\n");
  if (export_id != nullptr) {
    note_export(core::export_cdfs(export_id, series));
  }
}

inline void print_curves(const std::vector<core::Curve>& curves,
                         const char* x_label, const char* y_label,
                         bool x_as_log2 = false,
                         const char* export_id = nullptr) {
  std::printf("series: %s -> %s\n", x_label, y_label);
  for (const auto& c : curves) {
    std::printf("%-18s", c.platform.c_str());
    for (std::size_t i = 0; i < c.x.size(); ++i) {
      if (x_as_log2) {
        std::printf(" 2^%.0f:%.1f", std::log2(c.x[i]), c.y[i]);
      } else {
        std::printf(" %.0f:%.0f", c.x[i], c.y[i]);
      }
    }
    std::printf("\n");
  }
  std::printf("\n");
  if (export_id != nullptr) {
    note_export(core::export_curves(export_id, curves, x_label, y_label));
  }
}

}  // namespace benchutil
