// Human-readable tables and CSV dumps of experiment sweeps. Each bench
// binary prints one table per figure it reproduces.
#ifndef CCSIM_CORE_REPORT_H_
#define CCSIM_CORE_REPORT_H_

#include <ostream>
#include <string>
#include <vector>

#include "core/metrics.h"

namespace ccsim {

/// Which optional columns to print (throughput, mpl, algorithm are always
/// shown).
struct ReportColumns {
  bool response = true;
  bool ratios = true;
  bool disk_util = true;
  bool cpu_util = false;
  bool avg_mpl = true;
  bool percentiles = false;  ///< Response-time p50/p90/p99.
  bool phases = false;       ///< Per-phase response breakdown (obs runs).
  bool blame = false;        ///< Blame attribution summary (obs runs).

  /// Every group off: throughput, mpl and algorithm only.
  static ReportColumns ThroughputOnly();

  /// Parses a comma-separated column-group spec (response, percentiles,
  /// ratios, disk, cpu, mpl, phases, blame, or all) into a ReportColumns
  /// starting from ThroughputOnly(). An unknown token is a hard error — a
  /// typo must not silently drop a column. Shared by the
  /// CCSIM_REPORT_COLUMNS env knob and the `columns=` config key.
  static ReportColumns Parse(const std::string& spec);

  /// Applies the CCSIM_REPORT_COLUMNS env knob: when set, Parse()s it and
  /// *replaces* `defaults`; unset, returns `defaults` unchanged.
  static ReportColumns FromEnv(const ReportColumns& defaults);
};

/// Prints a fixed-width table of the sweep, algorithm-major, with the
/// throughput confidence half-width in a ± column.
void PrintReportTable(std::ostream& out, const std::string& title,
                      const std::vector<MetricsReport>& reports,
                      const ReportColumns& columns = ReportColumns());

/// Prints the per-class breakdown of each report (skips single-class
/// reports, which the main table already covers).
void PrintPerClassTable(std::ostream& out, const std::string& title,
                        const std::vector<MetricsReport>& reports);

/// Writes the sweep as CSV (all metrics, one row per point). Returns false
/// if the file could not be opened.
bool WriteReportCsv(const std::string& path,
                    const std::vector<MetricsReport>& reports);

/// Resolves the CSV output path for a bench: "$CCSIM_CSV_DIR/<name>.csv", or
/// empty when CCSIM_CSV_DIR is unset (no CSV requested).
std::string CsvPathFor(const std::string& name);

/// Writes a gnuplot script that renders throughput-vs-mpl curves (one per
/// algorithm appearing in `reports`) from the CSV previously written next to
/// it. `csv_filename` is the bare file name the script references (scripts
/// are meant to run from inside the output directory).
bool WriteThroughputGnuplot(const std::string& gp_path,
                            const std::string& csv_filename,
                            const std::string& title,
                            const std::vector<MetricsReport>& reports);

}  // namespace ccsim

#endif  // CCSIM_CORE_REPORT_H_
