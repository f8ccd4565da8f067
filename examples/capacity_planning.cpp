// Capacity planning: how many CPUs and disks does it take before a
// restart-oriented algorithm becomes the right choice? (The paper's
// Experiment 4 question, posed the way a database-machine designer would.)
//
//   ./capacity_planning [key=value ...]   e.g. write_prob=0.5 db_size=500
//
// For each hardware configuration, finds each algorithm's best throughput
// across the mpl sweep — the operating point a well-tuned system would run
// at — and reports the winner and the resource cost of the win.
#include <iostream>
#include <string>
#include <vector>

#include "analytic/mva.h"
#include "core/experiment.h"
#include "core/report.h"
#include "util/config.h"
#include "util/str.h"

int main(int argc, char** argv) {
  ccsim::Config config;
  std::string error;
  if (!config.ParseArgs(std::vector<std::string>(argv + 1, argv + argc),
                        &error)) {
    std::cerr << "usage: capacity_planning [key=value ...]\n" << error << "\n";
    return 1;
  }
  const std::vector<int> mpls = {10, 25, 50, 100, 200};
  if (config.Has("mpl")) {
    std::cerr << "capacity_planning: mpl is not used; each hardware size "
                 "sweeps mpl";
    for (int mpl : mpls) std::cerr << " " << mpl;
    std::cerr << "\n";
    return 2;
  }

  ccsim::EngineConfig base;
  base.workload.ApplyConfig(config);
  base.seed = static_cast<uint64_t>(config.GetIntOr("seed", 42));
  if (!config.CheckAllRead(std::cerr)) return 2;

  ccsim::RunLengths lengths = ccsim::RunLengths::FromEnv([] {
    ccsim::RunLengths defaults;
    defaults.batches = 6;
    defaults.batch_length = ccsim::FromSeconds(15);
    defaults.warmup = ccsim::FromSeconds(30);
    return defaults;
  }());

  struct Hardware {
    int cpus, disks;
  };
  const std::vector<Hardware> configs = {{1, 2}, {5, 10}, {25, 50}};

  std::cout << "Capacity planning: best-tuned throughput per hardware size\n";
  std::vector<ccsim::MetricsReport> all;
  for (const Hardware& hw : configs) {
    // Analytical first cut: where the hardware saturates if concurrency
    // control cost nothing (no blocking, no restarts).
    ccsim::MvaSolver solver = ccsim::BuildPaperNetwork(
        base.workload, ccsim::ResourceConfig::Finite(hw.cpus, hw.disks));
    std::cout << ccsim::StringPrintf(
        "\n%d CPU(s), %d disk(s)  [contention-free ceiling %.1f tps]:\n",
        hw.cpus, hw.disks, solver.BottleneckThroughput());
    std::string winner;
    double winner_tps = -1.0;
    for (const std::string& algorithm : ccsim::PaperAlgorithms()) {
      double best_tps = 0.0;
      int best_mpl = 0;
      double best_useful = 0.0;
      for (int mpl : mpls) {
        ccsim::EngineConfig point = base;
        point.resources = ccsim::ResourceConfig::Finite(hw.cpus, hw.disks);
        point.algorithm = algorithm;
        point.workload.mpl = mpl;
        ccsim::MetricsReport r = ccsim::RunOnePoint(point, lengths);
        if (r.throughput.mean > best_tps) {
          best_tps = r.throughput.mean;
          best_mpl = mpl;
          best_useful = r.disk_util_useful.mean;
        }
        r.algorithm =
            ccsim::StringPrintf("%s %dx%d", algorithm.c_str(), hw.cpus, hw.disks);
        all.push_back(r);
      }
      std::cout << ccsim::StringPrintf(
          "  %-18s best %7.2f tps at mpl=%-3d (useful disk util %.0f%%)\n",
          algorithm.c_str(), best_tps, best_mpl, 100 * best_useful);
      if (best_tps > winner_tps) {
        winner_tps = best_tps;
        winner = algorithm;
      }
    }
    std::cout << "  => winner: " << winner << "\n";
  }

  std::cout << "\nThe paper's conclusion: blocking wins while utilization is\n"
               "medium-to-high; only when enough hardware sits idle (useful\n"
               "utilization ~30%) does optimistic cc pull ahead.\n";

  std::string csv = ccsim::CsvPathFor("capacity_planning");
  if (!csv.empty() && ccsim::WriteReportCsv(csv, all)) {
    std::cout << "(csv: " << csv << ")\n";
  }
  return 0;
}
