// perfbench: the ccsim benchmark binary (perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --trace-dir <dir>
//
// --trace 0 is the timed run: it repeats the workload, untraced, for
// --seconds of host time and reports the end-to-end metrics as medians over
// the repetitions, normalised to a reference host speed (see ProbeSeconds).
// --trace 1 is the traced run: untraced and traced passes
// over the same points, alternating for --seconds, reporting the per-layer
// metrics and writing the first traced pass's spans under --trace-dir.
// Either run also checks the simulated outputs: repetitions must agree with
// each other, traced runs with untraced ones, and the sweep at jobs 1 with
// jobs 2. It prints one JSON object on stdout; perfbench/run.py compares
// its points with the pinned values and prints the final result line.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc_count.h"
#include "cc/factory.h"
#include "core/closed_system.h"
#include "core/experiment.h"
#include "layers.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/str.h"

extern char** environ;

namespace perfbench {
namespace {

using ccsim::ClosedSystem;
using ccsim::EngineConfig;
using ccsim::MetricsReport;
using ccsim::ResourceConfig;
using ccsim::RunLengths;
using ccsim::Simulator;
using ccsim::StringPrintf;
using Clock = std::chrono::steady_clock;

/// Repetitions a timed run makes even when --seconds is already spent.
constexpr int kMinReps = 5;
/// Rounds of stand-alone point set-ups behind the sweep's setup_s.
constexpr int kSweepSetupRounds = 20;

/// Keeps the probe's result observable so its loop is not optimised away.
std::atomic<uint64_t> g_probe_sink{0};

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process, all threads.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A fixed piece of host work that shares no code with the simulator: an
/// event-kernel-like loop of heap pops and pushes with a random table
/// update per pop. Its time tracks how fast the host runs right now.
/// `threads` copies run at once, as the sweep's workers do; since a worker
/// pool's throughput is the sum of its threads' speeds, the result is the
/// harmonic mean of their times.
double ProbeSeconds(int threads) {
  auto body = [](uint64_t salt) {
    constexpr size_t kTable = 1 << 17;  // 1 MiB of uint64_t.
    constexpr int kOps = 100000;
    const auto t0 = Clock::now();
    std::vector<uint64_t> table(kTable, salt);
    std::priority_queue<std::pair<uint64_t, uint64_t>,
                        std::vector<std::pair<uint64_t, uint64_t>>,
                        std::greater<>>
        heap;
    uint64_t x = 0x9e3779b97f4a7c15ULL ^ salt;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (uint64_t i = 0; i < 4096; ++i) heap.emplace(next() % 100000, i);
    for (int i = 0; i < kOps; ++i) {
      const auto [time, id] = heap.top();
      heap.pop();
      table[(id * 2654435761ULL + time) % kTable] += time;
      heap.emplace(time + next() % 100000, id);
    }
    g_probe_sink.fetch_add(table[static_cast<size_t>(x % kTable)],
                           std::memory_order_relaxed);
    return SecondsSince(t0);
  };
  std::vector<double> seconds(static_cast<size_t>(threads), 0.0);
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) {
    helpers.emplace_back([&body, &seconds, t] {
      seconds[static_cast<size_t>(t)] = body(static_cast<uint64_t>(t));
    });
  }
  seconds[0] = body(0);
  for (std::thread& helper : helpers) helper.join();
  double inverse_sum = 0.0;
  for (double s : seconds) inverse_sum += 1.0 / s;
  return static_cast<double>(threads) / inverse_sum;
}

/// Pins the process to `count` CPUs, starting with the one it runs on, so
/// the probe and the repetitions it normalises run on the same CPUs. Later
/// threads (the sweep's workers) inherit the mask.
void PinToCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  const int current = sched_getcpu();
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int chosen = 0;
  for (int pass = 0; pass < 2 && chosen < count; ++pass) {
    for (int cpu = 0; cpu < CPU_SETSIZE && chosen < count; ++cpu) {
      const bool first = cpu == current;
      if (CPU_ISSET(cpu, &allowed) && !CPU_ISSET(cpu, &pinned) &&
          (pass == 1 || first)) {
        CPU_SET(cpu, &pinned);
        ++chosen;
      }
    }
  }
  if (chosen > 0) sched_setaffinity(0, sizeof pinned, &pinned);
}

/// Peak resident memory of this process image. VmHWM, not getrusage's
/// ru_maxrss: after exec, ru_maxrss still carries the launching process's
/// peak, which would make the figure depend on what started the benchmark.
double PeakRssMib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(status);
  return kib / 1024.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Host speed. The benchmark runs on shared hosts whose speed drifts by tens
// of percent over seconds to minutes as other tenants come and go, so raw
// wall times of one build differ between runs by more than any regression
// worth catching. Every timed repetition is therefore bracketed by runs of
// ProbeSeconds, fixed work that shares no code with the simulator, and
// each timing is reported as its median over the run's repetitions of
//   measured seconds * kProbeReferenceSeconds / (mean of the two probes):
// host seconds at the speed at which the probe takes kProbeReferenceSeconds.
// A change to the simulator moves the timings; a change of host speed
// moves the probe too and cancels.

/// The probe's time in a quiet spell of the host the bounds were set on.
constexpr double kProbeReferenceSeconds = 0.012;

/// Median over repetitions of values[i] scaled by the probes taken just
/// before and just after it, probes[i] and probes[i + 1].
double Normalized(const std::vector<double>& values,
                  const std::vector<double>& probes) {
  std::vector<double> scaled;
  for (size_t i = 0; i < values.size() && i + 1 < probes.size(); ++i) {
    scaled.push_back(values[i] * 2.0 * kProbeReferenceSeconds /
                     (probes[i] + probes[i + 1]));
  }
  return Median(scaled);
}

void LogTimings(const char* what, const std::vector<double>& values,
                const std::vector<double>& probes) {
  std::fprintf(stderr,
               "perfbench: %s over %zu repetitions: raw median %.6g, "
               "normalised median %.6g (probe median %.6g s)\n",
               what, values.size(), Median(values),
               Normalized(values, probes), Median(probes));
}

// --- Workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  uint64_t seed = 0;  ///< --seed: the point seed, or the sweep's master seed.
  /// Every point, in sweep order; a single-point workload has one.
  std::vector<EngineConfig> points;
  RunLengths lengths;
  /// Set for the sweep workload, which is timed through RunSweepChecked.
  bool sweep = false;
  ccsim::SweepConfig sweep_config;
};

RunLengths Lengths(int batches, double batch_seconds, double warmup_seconds) {
  RunLengths lengths;
  lengths.batches = batches;
  lengths.batch_length = ccsim::FromSeconds(batch_seconds);
  lengths.warmup = ccsim::FromSeconds(warmup_seconds);
  return lengths;
}

/// The paper's Table 2 parameters (the WorkloadParams defaults) at `seed`.
EngineConfig TableTwo(uint64_t seed) {
  EngineConfig config;
  config.seed = seed;
  return config;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  w->name = name;
  w->seed = seed;
  if (name == "lowconflict_inf") {
    // Fig. 3: blocking at low conflict with infinite resources.
    EngineConfig config = TableTwo(seed);
    config.workload.db_size = 10000;
    config.resources = ResourceConfig::Infinite();
    config.algorithm = "blocking";
    config.workload.mpl = 50;
    w->points = {config};
    w->lengths = Lengths(20, 8.0, 40.0);
    return true;
  }
  if (name == "thrash_finite") {
    // Fig. 8: blocking thrashing on 1 CPU and 2 disks at mpl 200.
    EngineConfig config = TableTwo(seed);
    config.resources = ResourceConfig::Finite(1, 2);
    config.algorithm = "blocking";
    config.workload.mpl = 200;
    w->points = {config};
    w->lengths = Lengths(20, 100.0, 100.0);
    return true;
  }
  if (name == "sweep_audited") {
    // Experiment 2 (Figs. 5-7): the paper's three algorithms over its mpl
    // levels, infinite resources, audited, two worker threads.
    ccsim::SweepConfig& sweep = w->sweep_config;
    sweep.base = TableTwo(seed);
    sweep.base.resources = ResourceConfig::Infinite();
    sweep.base.audit = true;
    sweep.algorithms = ccsim::PaperAlgorithms();
    sweep.mpls = ccsim::PaperMplLevels();
    sweep.lengths = Lengths(20, 2.0, 4.0);
    sweep.jobs = 2;
    // The same points, seeds included, that RunSweepChecked builds.
    for (const std::string& algorithm : sweep.algorithms) {
      for (int mpl : sweep.mpls) {
        EngineConfig config = sweep.base;
        config.algorithm = algorithm;
        config.workload.mpl = mpl;
        w->points.push_back(config);
      }
    }
    const std::vector<uint64_t> seeds =
        ccsim::DeriveSeeds(seed, w->points.size());
    for (size_t i = 0; i < w->points.size(); ++i) w->points[i].seed = seeds[i];
    w->lengths = sweep.lengths;
    w->sweep = true;
    return true;
  }
  return false;
}

// --- Running one point --------------------------------------------------------

/// The simulated outputs of one point that must never move. -1 marks an
/// engine counter RunSweepChecked does not return.
struct PointOutputs {
  std::string error;  ///< Empty when the point ran clean.
  int64_t lifetime_commits = -1;
  int64_t events = -1;
  int64_t commits = 0;
  int64_t restarts = 0;
  int64_t blocks = 0;
  double throughput = 0.0;
  uint64_t digest = 0;
  int64_t audit_checks = 0;
  ccsim::CCStats cc;
};

PointOutputs FromReport(const MetricsReport& report) {
  PointOutputs out;
  out.commits = report.commits;
  out.restarts = report.restarts;
  out.blocks = report.blocks;
  out.throughput = report.throughput.mean;
  out.digest = report.replay_digest;
  out.audit_checks = report.audit_checks;
  out.cc = report.cc_stats;
  if (report.audited && report.audit_violations > 0) {
    out.error = StringPrintf("%lld audit violation(s)",
                             static_cast<long long>(report.audit_violations));
  }
  return out;
}

/// "" when `a` and `b` agree, else the first field that differs. With
/// `with_audit` false the audit-only fields are not compared.
std::string DiffOutputs(const PointOutputs& a, const PointOutputs& b,
                        bool with_audit = true) {
  if (!a.error.empty()) return a.error;
  if (!b.error.empty()) return b.error;
  struct Field {
    const char* name;
    int64_t a, b;
  };
  const Field fields[] = {
      {"commits", a.commits, b.commits},
      {"restarts", a.restarts, b.restarts},
      {"blocks", a.blocks, b.blocks},
      {"deadlocks_detected", a.cc.deadlocks_detected, b.cc.deadlocks_detected},
      {"deadlock_victims", a.cc.deadlock_victims, b.cc.deadlock_victims},
      {"lock_conflicts", a.cc.lock_conflicts, b.cc.lock_conflicts},
      {"validation_failures", a.cc.validation_failures,
       b.cc.validation_failures},
      {"wounds", a.cc.wounds, b.cc.wounds},
      {"timestamp_rejections", a.cc.timestamp_rejections,
       b.cc.timestamp_rejections},
  };
  for (const Field& f : fields) {
    if (f.a != f.b) {
      return StringPrintf("%s %lld != %lld", f.name,
                          static_cast<long long>(f.a),
                          static_cast<long long>(f.b));
    }
  }
  if (a.throughput != b.throughput) {
    return StringPrintf("throughput %.17g != %.17g", a.throughput,
                        b.throughput);
  }
  if (a.lifetime_commits >= 0 && b.lifetime_commits >= 0 &&
      a.lifetime_commits != b.lifetime_commits) {
    return StringPrintf("lifetime commits %lld != %lld",
                        static_cast<long long>(a.lifetime_commits),
                        static_cast<long long>(b.lifetime_commits));
  }
  if (a.events >= 0 && b.events >= 0 && a.events != b.events) {
    return StringPrintf("events %lld != %lld", static_cast<long long>(a.events),
                        static_cast<long long>(b.events));
  }
  if (with_audit && (a.digest != b.digest || a.audit_checks != b.audit_checks)) {
    return StringPrintf("digest %016" PRIx64 " != %016" PRIx64, a.digest,
                        b.digest);
  }
  return "";
}

struct PointRun {
  PointOutputs out;
  double setup_s = 0.0;  ///< Start of the point to its first event.
  double run_s = 0.0;    ///< First event to the end of the experiment.
  double total_s = 0.0;  ///< Start to teardown, inclusive.
  SimTime end_time = 0;  ///< Simulated clock at the end.
  AllocCounts allocs;    ///< operator new during the run (traced only).
};

/// Runs one point on a Simulator this benchmark owns. With a tracer, the
/// point runs with the cc decorator, both sinks and the counting allocator.
PointRun RunPoint(const EngineConfig& config, const RunLengths& lengths,
                  LayerTracer* tracer) {
  PointRun run;
  ccsim::ScopedCheckTrap trap;
  const auto t0 = Clock::now();
  try {
    EngineConfig traced = config;
    if (tracer != nullptr) {
      traced.cc_factory = TimedCcFactory(tracer);
      traced.lifecycle_sink = tracer;
    }
    Simulator sim;
    ClosedSystem system(&sim, traced);
    if (tracer != nullptr) system.resources().AttachSpanSink(tracer);
    system.Prime();
    const auto t1 = Clock::now();
    const AllocCounts before = ReadAllocCounts();
    if (tracer != nullptr) SetAllocCounting(true);
    const MetricsReport report = system.RunExperiment(
        lengths.batches, lengths.batch_length, lengths.warmup);
    SetAllocCounting(false);
    const AllocCounts after = ReadAllocCounts();
    const auto t2 = Clock::now();
    run.out = FromReport(report);
    run.out.lifetime_commits = system.total_commits();
    run.out.events = static_cast<int64_t>(sim.events_fired());
    run.setup_s = std::chrono::duration<double>(t1 - t0).count();
    run.run_s = std::chrono::duration<double>(t2 - t1).count();
    run.end_time = sim.Now();
    run.allocs = AllocCounts{after.news - before.news,
                             after.bytes - before.bytes};
  } catch (const std::exception& e) {
    SetAllocCounting(false);
    run.out.error = e.what();
  }
  run.total_s = SecondsSince(t0);
  return run;
}

// --- Results ------------------------------------------------------------------

struct PointRecord {
  EngineConfig config;
  PointOutputs out;  ///< From the point's first clean execution.
  bool have_out = false;
  int64_t runs = 0;
  int64_t failed = 0;

  /// Counts one execution; a failed or diverging one is a failed run.
  /// Returns the failure, or "".
  std::string Add(const PointOutputs& outputs) {
    ++runs;
    std::string diff =
        have_out ? DiffOutputs(out, outputs) : outputs.error;
    if (!have_out && outputs.error.empty()) {
      out = outputs;
      have_out = true;
    }
    if (!diff.empty()) ++failed;
    return diff;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<PointRecord> points;
  /// (check name, first failure or "").
  std::vector<std::pair<std::string, std::string>> checks;
  std::vector<Metric> metrics;

  void Check(const std::string& name, const std::string& failure) {
    for (auto& check : checks) {
      if (check.first == name) {
        if (check.second.empty()) check.second = failure;
        return;
      }
    }
    checks.emplace_back(name, failure);
  }
};

Result NewResult(const Workload& w) {
  Result result;
  for (const EngineConfig& config : w.points) {
    PointRecord record;
    record.config = config;
    result.points.push_back(record);
  }
  return result;
}

std::string PointLabel(const EngineConfig& config) {
  return StringPrintf("%s mpl=%d seed=%" PRIu64, config.algorithm.c_str(),
                      config.workload.mpl, config.seed);
}

// --- Timed run (--trace 0) ----------------------------------------------------

/// One untraced pass over every point with a tracer that keeps no spans:
/// the outputs must match the untraced ones, and it supplies the engine
/// counters (lifetime commits, events) RunSweepChecked does not return.
void CheckTracedAgrees(const Workload& w, Result* result) {
  for (size_t i = 0; i < w.points.size(); ++i) {
    PointRecord& point = result->points[i];
    LayerTracer tracer(/*keep_spans=*/false);
    const PointRun run = RunPoint(w.points[i], w.lengths, &tracer);
    const std::string failure = point.Add(run.out);
    result->Check("traced_matches_untraced",
                  failure.empty() ? "" : PointLabel(w.points[i]) + ": " + failure);
    if (failure.empty()) {
      point.out.lifetime_commits = run.out.lifetime_commits;
      point.out.events = run.out.events;
    }
  }
}

/// The timings of a timed run, one entry per repetition. Each probe list
/// holds one entry more: a probe before every repetition, then one after
/// the last.
struct Timings {
  std::vector<double> probe, wall, cpu;
  std::vector<double> setup_probe, setup;
  int64_t commits = 0;  ///< Lifetime commits of one repetition.

  /// `rss`: peak resident MiB at the end of the timed phase.
  std::vector<Metric> Metrics(double rss) const {
    LogTimings("wall_s", wall, probe);
    LogTimings("cpu_s", cpu, probe);
    LogTimings("setup_s", setup, setup_probe);
    const double wall_s = Normalized(wall, probe);
    return {
        {"commits_per_wall_s", Ratio(static_cast<double>(commits), wall_s),
         "1/s"},
        {"wall_s", wall_s, "s"},
        {"cpu_s", Normalized(cpu, probe), "s"},
        {"setup_s", Normalized(setup, setup_probe), "s"},
        {"peak_rss_mib", rss, "MiB"},
    };
  }
};

Result RunTimedPoint(const Workload& w, double seconds) {
  Result result = NewResult(w);
  PointRecord& point = result.points[0];
  Timings t;
  const auto start = Clock::now();
  t.probe.push_back(ProbeSeconds(1));
  while (point.runs < kMinReps || SecondsSince(start) < seconds) {
    const double cpu0 = ProcessCpuSeconds();
    const PointRun run = RunPoint(w.points[0], w.lengths, nullptr);
    t.cpu.push_back(ProcessCpuSeconds() - cpu0);
    t.wall.push_back(run.run_s);
    t.setup.push_back(run.setup_s);
    t.probe.push_back(ProbeSeconds(1));
    result.Check("repetitions_agree", point.Add(run.out));
  }
  t.setup_probe = t.probe;
  t.commits = point.out.lifetime_commits;
  result.metrics = t.Metrics(PeakRssMib());
  CheckTracedAgrees(w, &result);
  return result;
}

/// Seconds from the start of a point to its first event: construction and
/// Prime, on a Simulator this benchmark owns. -1 if the set-up failed.
double PointSetupSeconds(const EngineConfig& config) {
  ccsim::ScopedCheckTrap trap;
  const auto t0 = Clock::now();
  try {
    Simulator sim;
    ClosedSystem system(&sim, config);
    system.Prime();
    return SecondsSince(t0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up of %s failed: %s\n",
                 PointLabel(config).c_str(), e.what());
    return -1.0;
  }
}

/// Compares a checked sweep point by point against the records.
void AddSweepOutcome(const ccsim::SweepOutcome& outcome, const char* check,
                     Result* result) {
  if (outcome.points.size() != result->points.size()) {
    result->Check(check, "the sweep ran a different set of points");
    return;
  }
  for (size_t i = 0; i < result->points.size(); ++i) {
    const ccsim::PointResult& p = outcome.points[i];
    PointOutputs out = p.ok() ? FromReport(p.report) : PointOutputs{};
    if (!p.ok()) out.error = p.status.ToString();
    const std::string failure = result->points[i].Add(out);
    result->Check(check, failure.empty()
                             ? ""
                             : PointLabel(result->points[i].config) + ": " +
                                   failure);
  }
}

Result RunTimedSweep(const Workload& w, double seconds) {
  Result result = NewResult(w);
  Timings t;
  // A set-up sample is the median over one round of all the points.
  result.Check("setup_ok", "");
  t.setup_probe.push_back(ProbeSeconds(1));
  for (int round = 0; round < kSweepSetupRounds; ++round) {
    std::vector<double> round_setup;
    for (const EngineConfig& config : w.points) {
      const double s = PointSetupSeconds(config);
      if (s < 0.0) result.Check("setup_ok", PointLabel(config));
      round_setup.push_back(s);
    }
    t.setup.push_back(Median(round_setup));
    t.setup_probe.push_back(ProbeSeconds(1));
  }

  const auto start = Clock::now();
  t.probe.push_back(ProbeSeconds(w.sweep_config.jobs));
  while (t.wall.size() < static_cast<size_t>(kMinReps) ||
         SecondsSince(start) < seconds) {
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    const ccsim::SweepOutcome outcome = ccsim::RunSweepChecked(w.sweep_config);
    t.wall.push_back(SecondsSince(t0));
    t.cpu.push_back(ProcessCpuSeconds() - cpu0);
    t.probe.push_back(ProbeSeconds(w.sweep_config.jobs));
    AddSweepOutcome(outcome, "repetitions_agree", &result);
  }
  const double rss = PeakRssMib();

  ccsim::SweepConfig serial = w.sweep_config;
  serial.jobs = 1;
  AddSweepOutcome(ccsim::RunSweepChecked(serial), "sweep_jobs1_matches_jobs2",
                  &result);
  // Also fills in the lifetime commits RunSweepChecked does not return.
  CheckTracedAgrees(w, &result);
  for (const PointRecord& point : result.points) {
    t.commits += point.out.lifetime_commits;
  }
  result.metrics = t.Metrics(rss);
  return result;
}

// --- Traced run (--trace 1) ---------------------------------------------------

/// Sums over the points of one traced pass.
struct TracedPass {
  LayerCounts counts;
  AllocCounts allocs;
  int64_t lifetime_commits = 0;
  int64_t events = 0;
  int64_t deadlocks = 0;
  int64_t audit_checks = 0;
  double run_s = 0.0;
};

/// Wall time of the sweep at its job count through RunSweepChecked, with
/// each point's own wall time taken from its cc construction (inside the
/// engine's constructor, on the worker) to its completion callback.
struct ExecTiming {
  double makespan_s = 0.0;
  double point_sum_s = 0.0;
  double slowest_point_s = 0.0;
};

ExecTiming TimeSweepExec(const Workload& w, Result* result) {
  std::mutex mu;
  std::unordered_map<uint64_t, int64_t> started;  // seed -> ns
  std::vector<double> point_s(w.points.size(), 0.0);
  ccsim::SweepConfig sweep = w.sweep_config;
  sweep.base.cc_factory = [&mu, &started](const EngineConfig& config) {
    {
      std::lock_guard<std::mutex> lock(mu);
      started[config.seed] = NowNs();
    }
    return ccsim::MakeConcurrencyControl(config.algorithm,
                                         config.victim_policy);
  };
  const auto t0 = Clock::now();
  const ccsim::SweepOutcome outcome = ccsim::RunSweepChecked(
      sweep, [&mu, &started, &point_s](const ccsim::PointResult& p) {
        const int64_t now = NowNs();
        std::lock_guard<std::mutex> lock(mu);
        point_s[p.index] =
            static_cast<double>(now - started[p.config.seed]) * 1e-9;
      });
  ExecTiming timing;
  timing.makespan_s = SecondsSince(t0);
  AddSweepOutcome(outcome, "sweep_matches_point_runs", result);
  for (double s : point_s) {
    timing.point_sum_s += s;
    timing.slowest_point_s = std::max(timing.slowest_point_s, s);
  }
  return timing;
}

Result RunTraced(const Workload& w, double seconds, const std::string& path) {
  Result result = NewResult(w);
  const bool audited = w.points[0].audit;
  std::FILE* trace = std::fopen(path.c_str(), "w");
  if (trace == nullptr) {
    result.Check("trace_written", "cannot open " + path);
  } else {
    std::fprintf(trace,
                 "# perfbench trace: workload %s, seed %" PRIu64
                 "; columns in perfbench/README.md\n",
                 w.name.c_str(), w.seed);
  }

  TracedPass first;
  std::vector<double> events_rate, ns_per_call, cc_share, self_share,
      overhead, audit_ratio;
  double untraced_pass_s = 0.0, point_sum_s = 0.0, slowest_point_s = 0.0;
  const auto start = Clock::now();
  for (int pass = 0; pass == 0 || SecondsSince(start) < seconds; ++pass) {
    // Untraced, then traced, then (audited workloads) unaudited.
    double untraced_s = 0.0, unaudited_s = 0.0;
    TracedPass traced;
    std::vector<PointOutputs> untraced_out;
    const auto pass_t0 = Clock::now();
    for (size_t i = 0; i < w.points.size(); ++i) {
      const PointRun run = RunPoint(w.points[i], w.lengths, nullptr);
      result.Check("repetitions_agree", result.points[i].Add(run.out));
      untraced_s += run.run_s;
      untraced_out.push_back(run.out);
      if (pass == 0) {
        point_sum_s += run.total_s;
        slowest_point_s = std::max(slowest_point_s, run.total_s);
      }
    }
    if (pass == 0) untraced_pass_s = SecondsSince(pass_t0);

    for (size_t i = 0; i < w.points.size(); ++i) {
      LayerTracer tracer(/*keep_spans=*/pass == 0);
      const PointRun run = RunPoint(w.points[i], w.lengths, &tracer);
      // Add() compares with the point's first untraced outputs.
      result.Check("traced_matches_untraced", result.points[i].Add(run.out));
      traced.counts += tracer.counts();
      traced.allocs.news += run.allocs.news;
      traced.allocs.bytes += run.allocs.bytes;
      traced.lifetime_commits += run.out.lifetime_commits;
      traced.events += run.out.events;
      traced.deadlocks += run.out.cc.deadlocks_detected;
      traced.audit_checks += run.out.audit_checks;
      traced.run_s += run.run_s;
      if (pass == 0) {
        const auto wall_ns = static_cast<int64_t>(run.run_s * 1e9);
        result.Check("trace_self_test",
                     CheckTrace(tracer, wall_ns, run.end_time));
        if (trace != nullptr) {
          WriteTrace(trace, static_cast<int>(i), tracer, run.end_time);
        }
      }
    }

    if (audited) {
      for (size_t i = 0; i < w.points.size(); ++i) {
        EngineConfig config = w.points[i];
        config.audit = false;
        const PointRun run = RunPoint(config, w.lengths, nullptr);
        result.Check("audit_does_not_steer",
                     DiffOutputs(untraced_out[i], run.out,
                                 /*with_audit=*/false));
        unaudited_s += run.run_s;
      }
      audit_ratio.push_back(Ratio(untraced_s, unaudited_s));
    }

    if (pass == 0) first = traced;
    events_rate.push_back(Ratio(static_cast<double>(traced.events), untraced_s));
    ns_per_call.push_back(Ratio(static_cast<double>(traced.counts.cc_ns),
                                static_cast<double>(traced.counts.cc_calls)));
    const double share =
        Ratio(static_cast<double>(traced.counts.cc_ns) * 1e-9, traced.run_s);
    cc_share.push_back(share);
    self_share.push_back(1.0 - share);
    overhead.push_back(Ratio(traced.run_s, untraced_s));
  }
  if (trace != nullptr) {
    result.Check("trace_written",
                 std::fclose(trace) == 0 ? "" : "cannot write " + path);
  }

  double efficiency = Ratio(point_sum_s, untraced_pass_s);
  if (w.sweep) {
    const ExecTiming exec = TimeSweepExec(w, &result);
    efficiency =
        Ratio(exec.point_sum_s, w.sweep_config.jobs * exec.makespan_s);
    slowest_point_s = exec.slowest_point_s;
  }

  const double commits = static_cast<double>(first.lifetime_commits);
  auto per_commit = [commits](int64_t n) {
    return Ratio(static_cast<double>(n), commits);
  };
  result.metrics = {
      {"sim.events_per_wall_s", Median(events_rate), "1/s"},
      {"sim.events_per_commit", per_commit(first.events), "count"},
      {"alloc.new_per_commit",
       per_commit(static_cast<int64_t>(first.allocs.news)), "count"},
      {"alloc.bytes_per_commit",
       per_commit(static_cast<int64_t>(first.allocs.bytes)), "bytes"},
      {"cc.calls_per_commit", per_commit(first.counts.cc_calls), "count"},
      {"cc.ns_per_call", Median(ns_per_call), "ns"},
      {"cc.wall_share", Median(cc_share), "share"},
      {"cc.grant_ratio",
       Ratio(static_cast<double>(first.counts.cc_granted),
             static_cast<double>(first.counts.cc_decisions)),
       "ratio"},
      {"cc.deadlocks_per_commit", per_commit(first.deadlocks), "count"},
      {"core.incarnations_per_commit", per_commit(first.counts.activations),
       "count"},
      {"core.blocks_per_commit", per_commit(first.counts.blocks), "count"},
      {"core.self_wall_share", Median(self_share), "share"},
      {"res.services_per_commit", per_commit(first.counts.services), "count"},
      {"res.queue_events_per_commit", per_commit(first.counts.queue_events),
       "count"},
      {"audit.cost_ratio", audited ? Median(audit_ratio) : 1.0, "ratio"},
      {"audit.checks_per_commit", per_commit(first.audit_checks), "count"},
      {"exec.parallel_efficiency", efficiency, "ratio"},
      {"exec.slowest_point_s", slowest_point_s, "s"},
      {"trace.overhead_ratio", Median(overhead), "ratio"},
  };
  return result;
}

// --- Output -------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StringPrintf("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintResult(const Workload& w, int trace, const Result& result) {
  std::string json = StringPrintf(
      "{\"workload\": %s, \"seed\": %" PRIu64 ", \"trace\": %d, \"points\": [",
      JsonString(w.name).c_str(), w.seed, trace);
  for (size_t i = 0; i < result.points.size(); ++i) {
    const PointRecord& p = result.points[i];
    json += StringPrintf(
        "%s\n  {\"algorithm\": %s, \"mpl\": %d, \"seed\": %" PRIu64
        ", \"runs\": %lld, \"failed\": %lld, \"lifetime_commits\": %lld, "
        "\"events\": %lld, \"commits\": %lld, \"throughput\": %.17g, "
        "\"digest\": \"%016" PRIx64 "\"}",
        i == 0 ? "" : ",", JsonString(p.config.algorithm).c_str(),
        p.config.workload.mpl, p.config.seed, static_cast<long long>(p.runs),
        static_cast<long long>(p.failed),
        static_cast<long long>(p.out.lifetime_commits),
        static_cast<long long>(p.out.events),
        static_cast<long long>(p.out.commits), p.out.throughput, p.out.digest);
  }
  json += "],\n \"checks\": {";
  for (size_t i = 0; i < result.checks.size(); ++i) {
    json += StringPrintf("%s%s: %s", i == 0 ? "" : ", ",
                         JsonString(result.checks[i].first).c_str(),
                         JsonString(result.checks[i].second).c_str());
  }
  json += "},\n \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    json += StringPrintf("%s%s: {\"value\": %.17g, \"unit\": %s}",
                         i == 0 ? "" : ", ", JsonString(m.name).c_str(),
                         m.value, JsonString(m.unit).c_str());
  }
  json += "}}\n";
  std::fputs(json.c_str(), stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <lowconflict_inf|thrash_finite|"
               "sweep_audited> --seed <n> --seconds <s> --trace <0|1> "
               "--trace-dir <dir>\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name, trace_dir = ".";
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || (trace != 0 && trace != 1) || seconds <= 0.0) {
    return Usage();
  }

  // The engine and its runners read CCSIM_* knobs (run lengths, seed, jobs,
  // mpl levels, journal, faults, observability) silently; the benchmark pins
  // all of them itself, so any such variable is refused.
  std::string knobs;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "CCSIM_", 6) == 0) {
      knobs += std::string(" ") +
               std::string(*env, std::strcspn(*env, "="));
    }
  }
  if (!knobs.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with engine knobs set in the "
                 "environment:%s\n",
                 knobs.c_str());
    return 2;
  }

  Workload w;
  if (!MakeWorkload(workload_name, seed, &w)) return Usage();
  PinToCpus(w.sweep ? w.sweep_config.jobs : 1);
  Result result;
  if (trace == 1) {
    result = RunTraced(
        w, seconds,
        StringPrintf("%s/%s.tsv", trace_dir.c_str(), w.name.c_str()));
  } else if (w.sweep) {
    result = RunTimedSweep(w, seconds);
  } else {
    result = RunTimedPoint(w, seconds);
  }
  PrintResult(w, trace, result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
