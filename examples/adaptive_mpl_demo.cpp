// Adaptive multiprogramming-level control, live: starts a contended blocking
// system at a deliberately bad mpl and watches the hill-climbing controller
// walk it toward the knee of the throughput curve, printing one line per
// adjustment window. Demonstrates the library's dynamic SetMpl API and the
// paper's "open problem" extension.
//
//   ./adaptive_mpl_demo [key=value ...]   e.g. start_mpl=200 interval=20
#include <iostream>
#include <string>
#include <vector>

#include "core/adaptive_mpl.h"
#include "core/closed_system.h"
#include "sim/simulator.h"
#include "util/config.h"
#include "util/str.h"

int main(int argc, char** argv) {
  ccsim::Config config;
  std::string error;
  if (!config.ParseArgs(std::vector<std::string>(argv + 1, argv + argc),
                        &error)) {
    std::cerr << "usage: adaptive_mpl_demo [key=value ...]\n" << error << "\n";
    return 1;
  }
  if (config.Has("mpl")) {
    std::cerr << "adaptive_mpl_demo: mpl is not used; the run starts at "
                 "start_mpl (default 200)\n";
    return 2;
  }

  ccsim::EngineConfig engine_config;
  engine_config.ApplyConfig(config);
  engine_config.workload.mpl =
      static_cast<int>(config.GetIntOr("start_mpl", 200));
  engine_config.algorithm = config.GetStringOr("algorithm", "blocking");

  ccsim::SimTime interval =
      ccsim::FromSeconds(config.GetDoubleOr("interval", 30.0));
  double horizon_s = config.GetDoubleOr("horizon", 900.0);

  ccsim::AdaptiveMplController::Options options;
  options.interval = interval;
  options.min_mpl = static_cast<int>(config.GetIntOr("min_mpl", 5));
  options.max_mpl = engine_config.workload.mpl;
  options.step = static_cast<int>(config.GetIntOr("step", 10));
  if (!config.CheckAllRead(std::cerr)) return 2;

  ccsim::Simulator sim;
  ccsim::ClosedSystem system(&sim, engine_config);
  ccsim::AdaptiveMplController controller(&sim, &system, options);

  std::cout << "Adaptive mpl control: " << engine_config.algorithm
            << " starting at mpl=" << engine_config.workload.mpl << " on "
            << engine_config.resources.num_cpus << " CPU(s) / "
            << engine_config.resources.num_disks << " disk(s)\n"
            << ccsim::StringPrintf("%10s %6s %10s %10s %10s\n", "sim_time",
                                   "mpl", "tput(tps)", "commits", "restarts");

  system.Prime();
  controller.Start();

  int64_t last_commits = 0;
  for (ccsim::SimTime t = interval; ccsim::ToSeconds(t) <= horizon_s;
       t += interval) {
    sim.RunUntil(t);
    int64_t commits = system.total_commits();
    double tps = static_cast<double>(commits - last_commits) /
                 ccsim::ToSeconds(interval);
    last_commits = commits;
    std::cout << ccsim::StringPrintf(
        "%9.0fs %6d %10.2f %10lld %10lld\n", ccsim::ToSeconds(t), system.mpl(),
        tps, static_cast<long long>(commits),
        static_cast<long long>(system.total_restarts()));
  }

  std::cout << "\nfinal mpl: " << system.mpl() << " ("
            << controller.adjustments_made() << " adjustments)\n"
            << "The controller needs no model of the workload: it climbs the\n"
            << "observed throughput gradient, the paper's suggested remedy\n"
            << "for mpl-induced thrashing.\n";
  return 0;
}
