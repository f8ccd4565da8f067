// Generic experiment driver: run any sweep described by a config file (or
// inline key=value overrides) and print/emit the results. This is the
// downstream-user entry point: reproduce any paper figure, or explore a new
// region of the model, without writing C++.
//
//   ./run_config my_experiment.cfg
//   ./run_config algorithms=blocking,mvto mpls=10,50,200 num_cpus=5
//                num_disks=10 hot_fraction_db=0.2 hot_access_prob=0.8
//   (one shell line; shown wrapped here)
//
// `--help` lists every key (kUsage below). A key the driver does not read is
// rejected before anything runs, so a misspelling cannot silently leave the
// experiment at its default.
//
// --trace[=path] streams the transaction lifecycle trace (one line per
// submit/block/resume/restart/commit) to stderr or to `path` while the sweep
// runs; it forces jobs=1 so lines from different points never interleave.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "obs/trace.h"
#include "util/config.h"
#include "util/str.h"

namespace {

constexpr char kUsage[] =
    "usage: run_config [<config-file> | key=value ...] [--audit] [--help]\n"
    "\n"
    "Runs the sweep described by a config file, or by inline key=value\n"
    "overrides. Recognized keys:\n"
    "  workload:   db_size tran_size min_size max_size write_prob num_terms\n"
    "              mpl ext_think_time int_think_time obj_io_ms obj_cpu_ms\n"
    "              cc_cpu_ms buffer_hit_prob log_io_ms hot_fraction_db\n"
    "              hot_access_prob read_only_fraction\n"
    "  resources:  num_cpus num_disks infinite\n"
    "  algorithm:  algorithms mpls restart_delay fixed_delay_s victim\n"
    "              source arrival_rate x_lock_on_read_intent audit\n"
    "  run:        seed batches batch_seconds warmup_seconds csv title\n"
    "              percentiles columns obs trace sample_interval\n"
    "  faults:     disk_fault cpu_fault (simulated windows,\n"
    "              kind:start_s:end_s with kind stall|outage)\n"
    "\n"
    "Flags: --audit (same as audit=true), --columns=<list> (same as\n"
    "columns=<list>: report table column groups — response, percentiles,\n"
    "ratios, disk, cpu, mpl, phases, blame, or all; a typo is a hard error;\n"
    "CCSIM_REPORT_COLUMNS, if set, overrides), --trace[=path] (stream the\n"
    "transaction lifecycle trace to stderr or to <path>; forces jobs=1),\n"
    "--help.\n"
    "Environment: CCSIM_JOBS, CCSIM_MAX_EVENTS, CCSIM_OBS,\n"
    "CCSIM_SAMPLE_SECONDS, CCSIM_TRACE, CCSIM_HEARTBEAT_SECONDS,\n"
    "CCSIM_REPORT_COLUMNS and friends (docs/EXECUTION.md,\n"
    "docs/OBSERVABILITY.md).\n";

/// Parses a simulated fault window: kind:start_s:end_s (docs/FAULTS.md).
bool ParseFaultWindow(const std::string& text, ccsim::FaultWindow* out,
                      std::string* error) {
  const std::vector<std::string> fields = ccsim::Split(text, ':');
  if (fields.size() != 3) {
    *error = "expected kind:start_s:end_s";
    return false;
  }
  if (fields[0] == "stall") {
    out->kind = ccsim::FaultWindowKind::kStall;
  } else if (fields[0] == "outage") {
    out->kind = ccsim::FaultWindowKind::kOutage;
  } else {
    *error = "kind must be stall or outage";
    return false;
  }
  auto start = ccsim::ParseDouble(fields[1]);
  auto end = ccsim::ParseDouble(fields[2]);
  if (!start.has_value() || !end.has_value() || *start < 0.0 ||
      *end <= *start) {
    *error = "need 0 <= start_s < end_s";
    return false;
  }
  out->start = ccsim::FromSeconds(*start);
  out->end = ccsim::FromSeconds(*end);
  return true;
}

std::vector<int> ParseIntList(const std::string& text) {
  std::vector<int> values;
  for (const std::string& field : ccsim::Split(text, ',')) {
    auto parsed = ccsim::ParseInt(field);
    if (!parsed.has_value()) {
      std::cerr << "bad integer in list: " << field << "\n";
      std::exit(1);
    }
    values.push_back(static_cast<int>(*parsed));
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  ccsim::Config config;
  std::string error;
  bool lifecycle_trace = false;
  std::string lifecycle_trace_path;
  std::vector<std::string> args(argv + 1, argv + argc);
  args.erase(std::remove_if(args.begin(), args.end(),
                            [&](const std::string& arg) {
                              if (arg == "--trace") {
                                lifecycle_trace = true;
                                return true;
                              }
                              if (ccsim::StartsWith(arg, "--trace=")) {
                                lifecycle_trace = true;
                                lifecycle_trace_path =
                                    arg.substr(std::string("--trace=").size());
                                return true;
                              }
                              return false;
                            }),
             args.end());
  for (std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--audit") {
      arg = "audit=true";
    } else if (ccsim::StartsWith(arg, "--columns=")) {
      arg = arg.substr(2);  // --columns=LIST is sugar for columns=LIST.
    } else if (ccsim::StartsWith(arg, "--")) {
      std::cerr << "unknown flag: " << arg << "\n\n" << kUsage;
      return 2;
    }
  }

  // A single non-key=value argument is a config file path.
  if (args.size() == 1 && args[0].find('=') == std::string::npos) {
    std::ifstream in(args[0]);
    if (!in.good()) {
      std::cerr << "cannot open config file " << args[0] << "\n";
      return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!config.ParseText(text.str(), &error)) {
      std::cerr << args[0] << ": " << error << "\n";
      return 1;
    }
  } else if (!config.ParseArgs(args, &error)) {
    std::cerr << error << "\n\n" << kUsage;
    return 2;
  }

  // Every key is read before anything runs, so the unread-key check below
  // sees the whole config; keys that only matter under a condition are read
  // regardless.
  ccsim::SweepConfig sweep;
  sweep.base.ApplyConfig(config);
  if (config.GetBoolOr("infinite", false)) {
    sweep.base.resources = ccsim::ResourceConfig::Infinite();
  }

  // Simulated resource-fault windows (docs/FAULTS.md, "Fault windows").
  struct WindowKey {
    const char* key;
    ccsim::FaultWindow* slot;
  };
  for (const WindowKey& wk :
       {WindowKey{"disk_fault", &sweep.base.resources.disk_fault},
        WindowKey{"cpu_fault", &sweep.base.resources.cpu_fault}}) {
    const std::string spec = config.GetStringOr(wk.key, "");
    if (spec.empty()) continue;
    std::string window_error;
    if (!ParseFaultWindow(spec, wk.slot, &window_error)) {
      std::cerr << wk.key << "=" << spec << ": " << window_error << "\n";
      return 1;
    }
  }

  std::string delay = config.GetStringOr("restart_delay", "");
  const double fixed_delay_s = config.GetDoubleOr("fixed_delay_s", 1.0);
  if (delay == "none") {
    sweep.base.restart_delay_mode = ccsim::RestartDelayMode::kNone;
  } else if (delay == "fixed") {
    sweep.base.restart_delay_mode = ccsim::RestartDelayMode::kFixed;
    sweep.base.fixed_restart_delay = ccsim::FromSeconds(fixed_delay_s);
  } else if (delay == "adaptive") {
    sweep.base.restart_delay_mode = ccsim::RestartDelayMode::kAdaptive;
  } else if (!delay.empty()) {
    std::cerr << "unknown restart_delay: " << delay << "\n";
    return 1;
  }

  std::string victim = config.GetStringOr("victim", "youngest");
  if (victim == "youngest") {
    sweep.base.victim_policy = ccsim::VictimPolicy::kYoungest;
  } else if (victim == "oldest") {
    sweep.base.victim_policy = ccsim::VictimPolicy::kOldest;
  } else if (victim == "fewest_locks") {
    sweep.base.victim_policy = ccsim::VictimPolicy::kFewestLocks;
  } else {
    std::cerr << "unknown victim policy: " << victim << "\n";
    return 1;
  }

  std::string source = config.GetStringOr("source", "closed");
  const double arrival_rate = config.GetDoubleOr("arrival_rate", 0.0);
  if (source == "open") {
    sweep.base.source_mode = ccsim::SourceMode::kOpen;
    sweep.base.arrival_rate = arrival_rate;
  } else if (source != "closed") {
    std::cerr << "unknown source mode: " << source << "\n";
    return 1;
  }
  sweep.base.x_lock_on_read_intent =
      config.GetBoolOr("x_lock_on_read_intent", false);
  sweep.base.audit = config.GetBoolOr("audit", sweep.base.audit);

  const std::string csv = config.GetStringOr("csv", "");
  sweep.base.obs.enabled = config.GetBoolOr("obs", false);
  std::string perfetto_dir = config.GetStringOr("trace", "");
  if (!perfetto_dir.empty()) {
    sweep.base.obs.enabled = true;
    sweep.base.obs.trace_dir = perfetto_dir;
  }
  double sample_interval = config.GetDoubleOr("sample_interval", 0.0);
  if (sample_interval < 0.0) {
    std::cerr << "sample_interval must be >= 0\n";
    return 1;
  }
  if (sample_interval > 0.0) {
    sweep.base.obs.enabled = true;
    sweep.base.obs.sample_interval = ccsim::FromSeconds(sample_interval);
    // Time-series CSVs land next to the sweep CSV, or in the cwd.
    auto slash = csv.find_last_of('/');
    sweep.base.obs.sample_dir =
        slash == std::string::npos ? "." : csv.substr(0, slash);
  }

  sweep.algorithms = ccsim::Split(
      config.GetStringOr("algorithms", "blocking,immediate_restart,optimistic"),
      ',');
  sweep.mpls = config.Has("mpls") ? ParseIntList(*config.GetString("mpls"))
                                  : ccsim::PaperMplLevels();

  sweep.lengths.batches = static_cast<int>(config.GetIntOr("batches", 10));
  sweep.lengths.batch_length =
      ccsim::FromSeconds(config.GetDoubleOr("batch_seconds", 15.0));
  sweep.lengths.warmup =
      ccsim::FromSeconds(config.GetDoubleOr("warmup_seconds", 30.0));
  sweep.lengths = ccsim::RunLengths::FromEnv(sweep.lengths);

  // columns= replaces the default column set (CCSIM_REPORT_COLUMNS, applied
  // inside PrintReportTable, still wins when set). A typo in the list is a
  // hard error, same as the env knob.
  ccsim::ReportColumns columns;
  columns.percentiles = config.GetBoolOr("percentiles", false);
  const std::string column_spec = config.GetStringOr("columns", "");
  if (!column_spec.empty()) columns = ccsim::ReportColumns::Parse(column_spec);
  const std::string title = config.GetStringOr("title", "run_config sweep");

  if (!config.CheckAllRead(std::cerr)) {
    std::cerr << "\n" << kUsage;
    return 2;
  }

  std::unique_ptr<std::ofstream> trace_file;
  std::unique_ptr<ccsim::StreamTraceSink> trace_sink;
  if (lifecycle_trace) {
    std::ostream* out = &std::cerr;
    if (!lifecycle_trace_path.empty()) {
      trace_file = std::make_unique<std::ofstream>(lifecycle_trace_path,
                                                   std::ios::trunc);
      if (!trace_file->good()) {
        std::cerr << "cannot open trace file " << lifecycle_trace_path << "\n";
        return 1;
      }
      out = trace_file.get();
    }
    trace_sink = std::make_unique<ccsim::StreamTraceSink>(out);
    sweep.base.lifecycle_sink = trace_sink.get();
    // One worker: lifecycle lines from concurrent points would interleave
    // into an unreadable (and nondeterministically ordered) stream.
    sweep.jobs = 1;
  }

  // The checked runner: a failed point (bad parameter combination, check
  // trip, event budget) is reported and skipped while the rest of the
  // sweep still completes and prints.
  ccsim::SweepOutcome outcome =
      ccsim::RunSweepChecked(sweep, [](const ccsim::PointResult& point) {
        if (point.ok()) {
          std::cerr << "  " << point.report.algorithm
                    << " mpl=" << point.report.mpl << ": "
                    << point.report.throughput.mean << " tps\n";
        } else {
          std::cerr << "  " << point.config.algorithm
                    << " mpl=" << point.config.workload.mpl
                    << ": FAILED: " << point.status.ToString() << "\n";
        }
      });
  auto reports = outcome.SuccessfulReports();

  int64_t audit_violations = 0;
  for (const ccsim::MetricsReport& r : reports) {
    if (!r.audited) continue;
    audit_violations += r.audit_violations;
    std::cerr << "  [audit] " << r.algorithm << " mpl=" << r.mpl << ": "
              << r.audit_checks << " checks, " << r.audit_violations
              << " violation(s), digest " << std::hex << r.replay_digest
              << std::dec << "\n";
  }

  ccsim::PrintReportTable(std::cout, title, reports, columns);

  if (!csv.empty()) {
    if (!ccsim::WriteReportCsv(csv, reports)) {
      std::cerr << "failed to write " << csv << "\n";
      return 1;
    }
    std::cout << "(csv: " << csv << ")\n";
  }
  if (audit_violations > 0) {
    std::cerr << "audit: " << audit_violations << " invariant violation(s)\n";
    return 2;
  }
  if (!outcome.ok()) {
    std::cerr << "sweep completed with failures:\n" << outcome.FailureSummary();
    return 1;
  }
  return 0;
}
