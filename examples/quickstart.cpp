// Quickstart: simulate the paper's baseline system (1 CPU, 2 disks, Table 2
// workload) under each of the three concurrency control algorithms and print
// the headline metrics.
//
//   ./quickstart [key=value ...]
//
// Any workload parameter, num_cpus, num_disks or seed can be overridden on
// the command line, e.g.
//   ./quickstart mpl=25 write_prob=0.5 db_size=5000
// Any other key is rejected (exit 2) before anything runs.
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "util/config.h"

int main(int argc, char** argv) {
  ccsim::Config config;
  std::string error;
  if (!config.ParseArgs(std::vector<std::string>(argv + 1, argv + argc),
                        &error)) {
    std::cerr << "usage: quickstart [key=value ...]\n" << error << "\n";
    return 1;
  }

  ccsim::EngineConfig base;
  base.workload.mpl = 25;  // A sensible default; override with mpl=N.
  base.ApplyConfig(config);
  if (!config.CheckAllRead(std::cerr)) return 2;

  ccsim::RunLengths lengths = ccsim::RunLengths::FromEnv(ccsim::RunLengths{});

  std::vector<ccsim::MetricsReport> reports;
  for (const std::string& algorithm : ccsim::PaperAlgorithms()) {
    ccsim::EngineConfig point = base;
    point.algorithm = algorithm;
    reports.push_back(ccsim::RunOnePoint(point, lengths));
    const ccsim::MetricsReport& r = reports.back();
    std::cout << "ran " << algorithm << ": " << r.commits << " commits in "
              << r.measured_seconds << " simulated seconds\n";
  }

  ccsim::PrintReportTable(std::cout, "quickstart: Table 2 workload", reports);
  return 0;
}
