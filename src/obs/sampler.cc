#include "obs/sampler.h"

#include <fstream>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/str.h"

namespace ccsim {

namespace {

/// "dir/ts_point.csv" -> "dir/ts_point.gp".
std::string GnuplotPathFor(const std::string& csv_path) {
  const size_t dot = csv_path.rfind('.');
  const size_t slash = csv_path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return csv_path + ".gp";
  }
  return csv_path.substr(0, dot) + ".gp";
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(Simulator* sim,
                                     const StatsRegistry* registry,
                                     std::string csv_path, SimTime interval)
    : sim_(sim),
      registry_(registry),
      csv_path_(std::move(csv_path)),
      interval_(interval),
      csv_(csv_path_) {
  CCSIM_CHECK_GT(interval_, 0);
  std::vector<std::string> header;
  header.push_back("time_s");
  for (std::string& name : registry_->ColumnNames()) {
    header.push_back(std::move(name));
  }
  csv_.WriteRow(header);
}

void TimeSeriesSampler::Start() { Sample(); }

void TimeSeriesSampler::Sample() {
  std::vector<double> values;
  values.reserve(registry_->num_columns());
  registry_->SampleRow(&values);
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.push_back(CsvWriter::Field(ToSeconds(sim_->Now())));
  for (double v : values) row.push_back(CsvWriter::Field(v));
  csv_.WriteRow(row);
  pending_ = sim_->Schedule(interval_, {.handler = this});
}

bool TimeSeriesSampler::Finish() {
  CCSIM_CHECK(!finished_) << "TimeSeriesSampler::Finish called twice";
  finished_ = true;
  sim_->Cancel(pending_);
  pending_ = kInvalidEventId;
  bool healthy = csv_.Finish();

  // Companion queue-dynamics plot: every sampled series against time.
  const std::string gp_path = GnuplotPathFor(csv_path_);
  std::ofstream gp(gp_path);
  const size_t columns = registry_->num_columns() + 1;
  gp << "# Queue dynamics over simulated time; render with: gnuplot "
     << gp_path << "\n";
  gp << "set datafile separator ','\n";
  gp << "set xlabel 'simulated time (s)'\n";
  gp << "set key outside right\n";
  gp << "set term png size 1400,900\n";
  gp << "set output '" << GnuplotPathFor(csv_path_) << ".png'\n";
  gp << StringPrintf(
      "plot for [i=2:%zu] '%s' using 1:i with lines title columnheader(i)\n",
      columns, csv_path_.c_str());
  gp.flush();
  healthy = healthy && gp.good();
  return healthy;
}

}  // namespace ccsim
