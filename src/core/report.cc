#include "core/report.h"

#include <algorithm>
#include <variant>

#include "util/check.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/str.h"

namespace ccsim {
namespace {

using C = ReportColumns;
using R = MetricsReport;

/// One column's value in one report: text, an integer or a real.
using Cell = std::variant<std::string, int64_t, double>;

/// One report column. A column has a CSV name, a table header, or both; the
/// table prints it `width` wide (negative left-aligns, as in printf), a real
/// with `decimals` places.
struct Column {
  const char* csv;
  const char* table;
  int width;
  int decimals;
  bool C::*group;  ///< The flag that shows it; nullptr: always shown.
  Cell (*get)(const R&);
};

/// An attribution fraction; 0/0 (no wasted or blocked time at all) is 0.
double Fraction(int64_t part, int64_t whole) {
  return whole > 0 ? static_cast<double>(part) / whole : 0.0;
}

/// Every column, in CSV order, which is also the table's order.
constexpr Column kColumns[] = {
    {"algorithm", "algorithm", -18, 0, nullptr,
     [](const R& r) -> Cell { return r.algorithm; }},
    {"mpl", "mpl", 5, 0, nullptr,
     [](const R& r) -> Cell { return int64_t{r.mpl}; }},
    {"throughput", "thruput", 9, 2, nullptr,
     [](const R& r) -> Cell { return r.throughput.mean; }},
    {"throughput_hw", "+-90%", 7, 2, nullptr,
     [](const R& r) -> Cell { return r.throughput.half_width; }},
    {"response_mean", "resp(s)", 8, 2, &C::response,
     [](const R& r) -> Cell { return r.response_mean.mean; }},
    {"response_sd", "resp_sd", 8, 2, &C::response,
     [](const R& r) -> Cell { return r.response_stddev; }},
    {"response_p50", "p50", 7, 2, &C::percentiles,
     [](const R& r) -> Cell { return r.response_p50; }},
    {"response_p90", "p90", 7, 2, &C::percentiles,
     [](const R& r) -> Cell { return r.response_p90; }},
    {"response_p99", "p99", 7, 2, &C::percentiles,
     [](const R& r) -> Cell { return r.response_p99; }},
    {"response_max", nullptr, 0, 0, nullptr,
     [](const R& r) -> Cell { return r.response_max; }},
    {"block_ratio", "blk_ratio", 9, 3, &C::ratios,
     [](const R& r) -> Cell { return r.block_ratio.mean; }},
    {"restart_ratio", "rst_ratio", 9, 3, &C::ratios,
     [](const R& r) -> Cell { return r.restart_ratio.mean; }},
    {"disk_util_total", "d_util", 7, 3, &C::disk_util,
     [](const R& r) -> Cell { return r.disk_util_total.mean; }},
    {"disk_util_useful", "d_usefl", 7, 3, &C::disk_util,
     [](const R& r) -> Cell { return r.disk_util_useful.mean; }},
    {"cpu_util_total", "c_util", 7, 3, &C::cpu_util,
     [](const R& r) -> Cell { return r.cpu_util_total.mean; }},
    {"cpu_util_useful", "c_usefl", 7, 3, &C::cpu_util,
     [](const R& r) -> Cell { return r.cpu_util_useful.mean; }},
    {"avg_active_mpl", "avg_mpl", 8, 1, &C::avg_mpl,
     [](const R& r) -> Cell { return r.avg_active_mpl; }},
    {"commits", nullptr, 0, 0, nullptr,
     [](const R& r) -> Cell { return r.commits; }},
    {"restarts", nullptr, 0, 0, nullptr,
     [](const R& r) -> Cell { return r.restarts; }},
    {"blocks", nullptr, 0, 0, nullptr,
     [](const R& r) -> Cell { return r.blocks; }},
    {"measured_seconds", nullptr, 0, 0, nullptr,
     [](const R& r) -> Cell { return r.measured_seconds; }},
    {"phase_ready", "ph_rdy", 7, 2, &C::phases,
     [](const R& r) -> Cell { return r.phases.ready; }},
    {"phase_cc_block", "ph_blk", 7, 2, &C::phases,
     [](const R& r) -> Cell { return r.phases.cc_block; }},
    {"phase_cpu", "ph_cpu", 7, 2, &C::phases,
     [](const R& r) -> Cell { return r.phases.cpu; }},
    {"phase_disk", "ph_dsk", 7, 2, &C::phases,
     [](const R& r) -> Cell { return r.phases.disk; }},
    {"phase_res_wait", "ph_rwt", 7, 2, &C::phases,
     [](const R& r) -> Cell { return r.phases.resource_wait; }},
    {"phase_think", "ph_thk", 7, 2, &C::phases,
     [](const R& r) -> Cell { return r.phases.think; }},
    {"phase_restart_delay", "ph_rdl", 7, 2, &C::phases,
     [](const R& r) -> Cell { return r.phases.restart_delay; }},
    {"phase_wasted", "ph_wst", 7, 2, &C::phases,
     [](const R& r) -> Cell { return r.phases.wasted; }},
    {"phase_other", "ph_oth", 7, 2, &C::phases,
     [](const R& r) -> Cell { return r.phases.other; }},
    {nullptr, "wst_attr", 8, 3, &C::blame, [](const R& r) -> Cell {
       return Fraction(r.blame.wasted_attributed_us, r.blame.wasted_us);
     }},
    {nullptr, "blk_attr", 8, 3, &C::blame, [](const R& r) -> Cell {
       return Fraction(r.blame.blocked_attributed_us, r.blame.blocked_us);
     }},
    {"blame_wasted_us", nullptr, 0, 0, &C::blame,
     [](const R& r) -> Cell { return r.blame.wasted_us; }},
    {"blame_wasted_attr_us", nullptr, 0, 0, &C::blame,
     [](const R& r) -> Cell { return r.blame.wasted_attributed_us; }},
    {"blame_blocked_us", nullptr, 0, 0, &C::blame,
     [](const R& r) -> Cell { return r.blame.blocked_us; }},
    {"blame_blocked_attr_us", nullptr, 0, 0, &C::blame,
     [](const R& r) -> Cell { return r.blame.blocked_attributed_us; }},
    {"blame_restarts_charged", nullptr, 0, 0, &C::blame,
     [](const R& r) -> Cell { return r.blame.restarts_charged; }},
    {"blame_blocks_charged", nullptr, 0, 0, &C::blame,
     [](const R& r) -> Cell { return r.blame.blocks_charged; }},
    {"blame_genealogy_mean", "gen_avg", 7, 2, &C::blame,
     [](const R& r) -> Cell { return r.blame.genealogy_mean; }},
    {"blame_genealogy_max", "gen_max", 7, 0, &C::blame,
     [](const R& r) -> Cell { return r.blame.genealogy_max; }},
    {"blame_top_aborter_us", nullptr, 0, 0, &C::blame,
     [](const R& r) -> Cell { return r.blame.top_aborter_wasted_us; }},
    {"blame_top_holder_us", nullptr, 0, 0, &C::blame,
     [](const R& r) -> Cell { return r.blame.top_holder_blocked_us; }},
};

/// The column groups a ReportColumns spec names, in table order.
constexpr struct {
  const char* name;
  bool C::*flag;
} kGroups[] = {{"response", &C::response}, {"percentiles", &C::percentiles},
               {"ratios", &C::ratios},     {"disk", &C::disk_util},
               {"cpu", &C::cpu_util},      {"mpl", &C::avg_mpl},
               {"phases", &C::phases},     {"blame", &C::blame}};

/// "response, percentiles, ..., blame, or all".
std::string GroupList() {
  std::string list;
  for (const auto& group : kGroups) list += std::string(group.name) + ", ";
  return list + "or all";
}

bool CollectedBlame(const R& r) { return r.blame.collected; }

/// The columns with a `name` in this rendering whose group `groups` shows.
std::vector<const Column*> Shown(const char* Column::*name, const C& groups) {
  std::vector<const Column*> shown;
  for (const Column& column : kColumns) {
    if (column.*name != nullptr &&
        (column.group == nullptr || groups.*column.group)) {
      shown.push_back(&column);
    }
  }
  return shown;
}

std::string CsvField(const Cell& cell) {
  if (const auto* text = std::get_if<std::string>(&cell)) return *text;
  if (const auto* n = std::get_if<int64_t>(&cell)) return CsvWriter::Field(*n);
  return CsvWriter::Field(std::get<double>(cell));
}

std::string TableField(const Column& column, const Cell& cell) {
  if (const auto* text = std::get_if<std::string>(&cell)) {
    return StringPrintf("%*s", column.width, text->c_str());
  }
  if (const auto* n = std::get_if<int64_t>(&cell)) {
    return StringPrintf("%*lld", column.width, static_cast<long long>(*n));
  }
  return StringPrintf("%*.*f", column.width, column.decimals,
                      std::get<double>(cell));
}

}  // namespace

ReportColumns ReportColumns::ThroughputOnly() {
  ReportColumns columns;
  for (const auto& group : kGroups) columns.*group.flag = false;
  return columns;
}

ReportColumns ReportColumns::Parse(const std::string& spec) {
  ReportColumns columns = ThroughputOnly();
  for (const std::string& token : Split(spec, ',')) {
    if (token.empty()) continue;  // Tolerate "a,,b" / trailing commas.
    bool known = false;
    for (const auto& group : kGroups) {
      if (token == group.name || token == "all") {
        columns.*group.flag = true;
        known = true;
      }
    }
    CCSIM_CHECK(known) << "report columns: unknown column group '" << token
                       << "' (expected " << GroupList() << ")";
  }
  return columns;
}

ReportColumns ReportColumns::FromEnv(const ReportColumns& defaults) {
  auto spec = GetEnv("CCSIM_REPORT_COLUMNS");
  if (!spec.has_value()) return defaults;
  return Parse(*spec);
}

void PrintReportTable(std::ostream& out, const std::string& title,
                      const std::vector<MetricsReport>& reports,
                      const ReportColumns& requested) {
  const std::vector<const Column*> shown =
      Shown(&Column::table, ReportColumns::FromEnv(requested));
  std::string header;
  for (const Column* column : shown) {
    if (!header.empty()) header += ' ';
    header += StringPrintf("%*s", column->width, column->table);
  }
  out << "\n== " << title << " ==\n"
      << header << "\n" << std::string(header.size(), '-') << "\n";
  const MetricsReport* last = nullptr;
  for (const MetricsReport& r : reports) {
    // A blank line separates algorithms, which the first column names.
    if (last != nullptr && kColumns[0].get(*last) != kColumns[0].get(r)) {
      out << "\n";
    }
    last = &r;
    std::string row;
    for (const Column* column : shown) {
      if (!row.empty()) row += ' ';
      row += TableField(*column, column->get(r));
    }
    out << row << "\n";
  }
  out.flush();
}

void PrintPerClassTable(std::ostream& out, const std::string& title,
                        const std::vector<MetricsReport>& reports) {
  bool any = false;
  for (const MetricsReport& r : reports) {
    if (r.per_class.size() > 1) any = true;
  }
  if (!any) return;
  out << "\n== " << title << " (per class) ==\n"
      << StringPrintf("%-18s %5s %-12s %9s %9s %8s %8s %8s\n", "algorithm",
                      "mpl", "class", "commits", "restarts", "resp(s)",
                      "resp_sd", "resp_max");
  for (const MetricsReport& r : reports) {
    if (r.per_class.size() <= 1) continue;
    for (const ClassMetrics& cls : r.per_class) {
      out << StringPrintf(
          "%-18s %5d %-12s %9lld %9lld %8.2f %8.2f %8.2f\n",
          r.algorithm.c_str(), r.mpl, cls.name.c_str(),
          static_cast<long long>(cls.commits),
          static_cast<long long>(cls.restarts), cls.response_mean,
          cls.response_stddev, cls.response_max);
    }
  }
  out.flush();
}

bool WriteReportCsv(const std::string& path,
                    const std::vector<MetricsReport>& reports) {
  CsvWriter csv(path);
  if (!csv.ok()) return false;
  // Every group, but the blame columns only when at least one report
  // carries blame data (observability runs). Plain runs keep the historical
  // 30-column layout byte-for-byte, which the reference-CSV diffs in
  // scripts/bench_smoke.sh depend on.
  ReportColumns groups = ReportColumns::Parse("all");
  groups.blame = std::any_of(reports.begin(), reports.end(), CollectedBlame);
  const std::vector<const Column*> shown = Shown(&Column::csv, groups);
  std::vector<std::string> row;
  for (const Column* column : shown) row.push_back(column->csv);
  csv.WriteRow(row);
  for (const MetricsReport& r : reports) {
    row.clear();
    for (const Column* column : shown) row.push_back(CsvField(column->get(r)));
    csv.WriteRow(row);
  }
  // Finish() flushes and reports stream health, so a write that hit a full
  // disk or a vanished directory fails the call instead of silently
  // producing a truncated CSV.
  return csv.Finish();
}

bool WriteThroughputGnuplot(const std::string& gp_path,
                            const std::string& csv_filename,
                            const std::string& title,
                            const std::vector<MetricsReport>& reports) {
  std::ofstream out(gp_path, std::ios::trunc);
  if (!out.good()) return false;

  // Unique algorithm labels, in first-appearance order; each becomes one
  // plotted series filtered out of the shared CSV by string match.
  std::vector<std::string> algorithms;
  for (const MetricsReport& r : reports) {
    if (std::find(algorithms.begin(), algorithms.end(), r.algorithm) ==
        algorithms.end()) {
      algorithms.push_back(r.algorithm);
    }
  }

  out << "# Generated by ccsim; renders throughput-vs-mpl from "
      << csv_filename << "\n"
      << "set datafile separator ','\n"
      << "set title \"" << title << "\"\n"
      << "set xlabel 'multiprogramming level'\n"
      << "set ylabel 'throughput (transactions/sec)'\n"
      << "set key outside right\n"
      << "set grid\n"
      << "set term pngcairo size 900,600\n"
      << "set output '" << csv_filename << ".png'\n"
      << "plot \\\n";
  for (size_t i = 0; i < algorithms.size(); ++i) {
    out << "  '" << csv_filename << "' using 2:(strcol(1) eq \""
        << algorithms[i] << "\" ? column(3) : 1/0) with linespoints title \""
        << algorithms[i] << "\"";
    out << (i + 1 < algorithms.size() ? ", \\\n" : "\n");
  }
  out.flush();
  return out.good();
}

std::string CsvPathFor(const std::string& name) {
  auto dir = GetEnv("CCSIM_CSV_DIR");
  if (!dir.has_value()) return std::string();
  return *dir + "/" + name + ".csv";
}

}  // namespace ccsim
