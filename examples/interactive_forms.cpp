// Interactive form-screen application study (the paper's Experiment 5
// motivation): users pull up a form (reads), stare at it, then hit enter
// (writes). How long may users think before optimistic concurrency control
// beats two-phase locking on ordinary hardware?
//
//   ./interactive_forms [key=value ...]    e.g. mpl=50 num_cpus=1 num_disks=2
//
// Sweeps the internal think time and reports the winner at each setting.
#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "util/config.h"
#include "util/str.h"

int main(int argc, char** argv) {
  ccsim::Config config;
  std::string error;
  if (!config.ParseArgs(std::vector<std::string>(argv + 1, argv + argc),
                        &error)) {
    std::cerr << "usage: interactive_forms [key=value ...]\n" << error << "\n";
    return 1;
  }
  // Internal/external think pairs keep the thinking:active ratio roughly
  // fixed, as in the paper's Experiment 5.
  struct Setting {
    double int_think_s, ext_think_s;
  };
  const std::vector<Setting> settings = {
      {0.0, 1.0}, {1.0, 3.0}, {5.0, 11.0}, {10.0, 21.0}};
  for (const char* key : {"int_think_time", "ext_think_time"}) {
    if (!config.Has(key)) continue;
    std::cerr << "interactive_forms: " << key
              << " is not used; the study sweeps internal/external think "
                 "times (s)";
    for (const Setting& s : settings) {
      std::cerr << " " << s.int_think_s << "/" << s.ext_think_s;
    }
    std::cerr << "\n";
    return 2;
  }

  ccsim::EngineConfig base;
  base.workload.mpl = 50;  // A sensible default; override with mpl=N.
  base.ApplyConfig(config);
  if (!config.CheckAllRead(std::cerr)) return 2;

  ccsim::RunLengths lengths = ccsim::RunLengths::FromEnv([] {
    ccsim::RunLengths defaults;
    defaults.batches = 8;
    defaults.batch_length = ccsim::FromSeconds(30);
    defaults.warmup = ccsim::FromSeconds(60);
    return defaults;
  }());

  std::vector<ccsim::MetricsReport> all;
  std::cout << "Interactive form-screen study: when does user think time make\n"
               "locking lose to optimistic cc? (mpl="
            << base.workload.mpl << ", " << base.resources.num_cpus
            << " CPU(s), " << base.resources.num_disks << " disk(s))\n";

  for (const Setting& s : settings) {
    ccsim::EngineConfig point = base;
    point.workload.int_think_time = ccsim::FromSeconds(s.int_think_s);
    point.workload.ext_think_time = ccsim::FromSeconds(s.ext_think_s);

    double best_blocking = 0.0, best_optimistic = 0.0;
    for (const std::string& algorithm : {std::string("blocking"),
                                         std::string("optimistic")}) {
      point.algorithm = algorithm;
      ccsim::MetricsReport r = ccsim::RunOnePoint(point, lengths);
      r.algorithm = ccsim::StringPrintf("%s @think=%.0fs", algorithm.c_str(),
                                        s.int_think_s);
      (algorithm == "blocking" ? best_blocking : best_optimistic) =
          r.throughput.mean;
      all.push_back(r);
    }
    const char* winner = best_blocking >= best_optimistic ? "blocking wins"
                                                          : "OPTIMISTIC wins";
    std::cout << ccsim::StringPrintf(
        "  think %5.1fs: blocking %6.2f tps vs optimistic %6.2f tps -> %s\n",
        s.int_think_s, best_blocking, best_optimistic, winner);
  }

  ccsim::PrintReportTable(std::cout, "full metrics", all);
  std::cout << "\nLong think times hold locks across user dead time; once the\n"
               "disks are mostly idle, wasted optimistic re-execution is\n"
               "cheaper than blocked lock queues (paper, Experiment 5).\n";
  return 0;
}
