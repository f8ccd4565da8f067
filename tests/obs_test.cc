// Tests for the observability layer (src/obs/): stats registry units, the
// Chrome trace-event writer, the time-series sampler, the phase breakdown
// identity, report column selection, the heartbeat thread, and — most
// importantly — that observability is a pure observer: enabling it changes
// no simulation metric, and same-seed runs produce byte-identical artifacts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cc/factory.h"
#include "core/closed_system.h"
#include "core/experiment.h"
#include "core/report.h"
#include "exec/watchdog.h"
#include "fake_cc_engine.h"
#include "obs/obs_config.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "obs/trace_json.h"
#include "res/server_pool.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/str.h"

namespace ccsim {
namespace {

/// Sets an environment variable for one scope; restores (unsets) on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name, value.c_str(), /*overwrite=*/1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// A contended configuration: blocks, deadlocks, and restarts all occur.
EngineConfig ContendedConfig() {
  EngineConfig config;
  config.workload.db_size = 100;
  config.workload.tran_size = 5;
  config.workload.min_size = 2;
  config.workload.max_size = 8;
  config.workload.write_prob = 0.4;
  config.workload.num_terms = 20;
  config.workload.mpl = 10;
  config.workload.obj_io = FromMillis(10);
  config.workload.obj_cpu = FromMillis(3);
  config.resources = ResourceConfig::Finite(1, 2);
  config.algorithm = "blocking";
  config.seed = 71;
  return config;
}

// --- StatsRegistry units -------------------------------------------------

TEST(StatsRegistryTest, CountersGaugesHistogramsSampleInOrder) {
  StatsRegistry registry;
  ObsCounter* counter = registry.AddCounter("commits");
  double gauge_value = 3.5;
  registry.AddGauge("queue", [&gauge_value] { return gauge_value; });
  Histogram* hist = registry.AddHistogram("cycle_len", 0.0, 10.0, 10);

  counter->Inc();
  counter->Add(4);
  hist->Add(2.0);
  hist->Add(3.0);

  EXPECT_EQ(registry.ColumnNames(),
            (std::vector<std::string>{"commits", "queue", "cycle_len_count",
                                      "cycle_len_p50"}));
  std::vector<double> row;
  registry.SampleRow(&row);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_DOUBLE_EQ(row[0], 5.0);
  EXPECT_DOUBLE_EQ(row[1], 3.5);
  EXPECT_DOUBLE_EQ(row[2], 2.0);
  EXPECT_EQ(registry.ValueOf("commits"), 5.0);
  gauge_value = -1.0;
  EXPECT_EQ(registry.ValueOf("queue"), -1.0);
}

TEST(StatsRegistryTest, LockTableGaugeDropsToZeroAfterLastRelease) {
  // Every lock-based algorithm registers the lock-table gauges, and the two
  // that run the deadlock detector also count its searches and cycle
  // lengths. The lock_table_objects gauge reads dense-table occupancy (an
  // occupied slot, not a map entry), so it must fall back to exactly 0 once
  // the last holder releases — for both the lock-manager-backed and the
  // static-locking table.
  const std::vector<std::string> gauges = {"lock_table_objects",
                                           "lock_waiters"};
  const std::vector<std::string> detector = {
      "lock_table_objects", "lock_waiters", "deadlock_searches",
      "deadlock_cycle_len_count", "deadlock_cycle_len_p50"};
  const std::pair<const char*, std::vector<std::string>> cases[] = {
      {"blocking", detector},   {"immediate_restart", gauges},
      {"wound_wait", detector}, {"wait_die", gauges},
      {"static_locking", gauges},
  };
  for (const auto& [algorithm, columns] : cases) {
    SCOPED_TRACE(algorithm);
    FakeCCEngine engine;
    std::unique_ptr<ConcurrencyControl> cc = MakeConcurrencyControl(algorithm);
    cc->ReserveCapacity(/*num_objects=*/16, /*num_txns=*/4);
    cc->SetCallbacks(engine.Callbacks());
    StatsRegistry registry;
    cc->RegisterStats(&registry);
    ASSERT_EQ(registry.ColumnNames(), columns);
    EXPECT_EQ(registry.ValueOf("lock_table_objects"), 0.0);

    cc->OnBegin(1, 1, 1);
    cc->OnBegin(2, 2, 2);
    if (cc->needs_predeclaration()) {
      EXPECT_EQ(cc->Predeclare(1, {0, 1}, {1}), CCDecision::kGranted);
      EXPECT_EQ(cc->Predeclare(2, {0}, {}), CCDecision::kGranted);
    } else {
      EXPECT_EQ(cc->ReadRequest(1, 0), CCDecision::kGranted);
      EXPECT_EQ(cc->ReadRequest(1, 1), CCDecision::kGranted);
      EXPECT_EQ(cc->WriteRequest(1, 1), CCDecision::kGranted);
      EXPECT_EQ(cc->ReadRequest(2, 0), CCDecision::kGranted);  // Shared.
    }
    EXPECT_EQ(registry.ValueOf("lock_table_objects"), 2.0);

    EXPECT_TRUE(cc->Validate(1));
    cc->Commit(1);  // Object 1 freed; object 0 still read-held by txn 2.
    EXPECT_EQ(registry.ValueOf("lock_table_objects"), 1.0);

    EXPECT_TRUE(cc->Validate(2));
    cc->Commit(2);  // ReleaseAll of the last holder.
    EXPECT_EQ(registry.ValueOf("lock_table_objects"), 0.0);
  }
}

TEST(StatsRegistryTest, DuplicateNameIsHardError) {
  StatsRegistry registry;
  registry.AddCounter("x");
  ScopedCheckTrap trap;
  EXPECT_THROW(registry.AddGauge("x", [] { return 0.0; }), CheckFailure);
}

TEST(StatsRegistryTest, UnknownColumnIsHardError) {
  StatsRegistry registry;
  registry.AddCounter("x");
  ScopedCheckTrap trap;
  EXPECT_THROW(registry.ValueOf("y"), CheckFailure);
}

// --- TraceEventWriter ----------------------------------------------------

TEST(TraceEventWriterTest, WritesStructurallyValidJson) {
  std::string path = testing::TempDir() + "obs_trace_writer_test.json";
  {
    TraceEventWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.NameProcess(1, "transactions");
    writer.NameThread(1, 42, "txn 42");
    writer.Complete(1, 42, "inc 1", 1000, 2500);
    writer.Instant(1, 42, "submitted", 900);
    writer.Counter(2, "disk queue", 1500, 3.0);
    EXPECT_EQ(writer.events_written(), 5);
    EXPECT_TRUE(writer.Finish());
  }
  std::string text = ReadFile(path);
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u) << text.substr(0, 40);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  // Balanced object: every '{' has a '}' and the file closes the array.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
  std::remove(path.c_str());
}

// --- Observability is a pure observer ------------------------------------

// Every observer is a listener on the engine's event stream, so none can
// steer a run: each one, and all of them at once, must leave the audited
// baseline's replay digest, audit checks and counts untouched, for every
// algorithm.
class ListenerPurityTest : public testing::TestWithParam<std::string> {};

TEST_P(ListenerPurityTest, NoListenerSteersTheRun) {
  RunLengths lengths;
  lengths.batches = 3;
  lengths.batch_length = 5 * kSecond;
  lengths.warmup = 2 * kSecond;
  auto run = [&](const EngineConfig& config) {
    Simulator sim;
    ClosedSystem system(&sim, config);
    return system.RunExperiment(lengths.batches, lengths.batch_length,
                                lengths.warmup);
  };

  EngineConfig base = ContendedConfig();
  base.algorithm = GetParam();
  base.audit = true;  // Replay digest: the strongest identity check we have.
  const MetricsReport baseline = run(base);
  ASSERT_GT(baseline.commits, 0);

  // Directory fields: the engine resolves the per-point artifact paths.
  auto with_obs = [&](EngineConfig config) {
    config.obs.enabled = true;
    config.obs.sample_interval = kSecond / 2;
    config.obs.sample_dir = testing::TempDir();
    config.obs.trace_dir = testing::TempDir();
    return config;
  };
  EngineConfig observed = with_obs(base);
  EngineConfig history = base;
  history.record_history = true;
  MemoryTraceSink sink;
  EngineConfig traced = base;
  traced.lifecycle_sink = &sink;
  MemoryTraceSink all_sink;
  EngineConfig all = with_obs(base);
  all.record_history = true;
  all.lifecycle_sink = &all_sink;

  for (const EngineConfig& config : {observed, history, traced, all}) {
    const MetricsReport report = run(config);
    SCOPED_TRACE(StringPrintf("obs=%d history=%d sink=%d",
                              config.obs.enabled, config.record_history,
                              config.lifecycle_sink != nullptr));
    EXPECT_EQ(report.replay_digest, baseline.replay_digest);
    EXPECT_EQ(report.audit_checks, baseline.audit_checks);
    EXPECT_EQ(report.audit_violations, 0);
    EXPECT_EQ(report.commits, baseline.commits);
    EXPECT_EQ(report.restarts, baseline.restarts);
    EXPECT_EQ(report.blocks, baseline.blocks);
    EXPECT_DOUBLE_EQ(report.throughput.mean, baseline.throughput.mean);
    EXPECT_DOUBLE_EQ(report.response_mean.mean, baseline.response_mean.mean);
    EXPECT_EQ(report.phases.collected, config.obs.enabled);
  }
  EXPECT_FALSE(baseline.phases.collected);

  ASSERT_FALSE(sink.records().empty());
  ASSERT_EQ(sink.records().size(), all_sink.records().size());
  for (size_t i = 0; i < sink.records().size(); ++i) {
    const TraceRecord& a = sink.records()[i];
    const TraceRecord& b = all_sink.records()[i];
    ASSERT_TRUE(a.time == b.time && a.txn == b.txn &&
                a.incarnation == b.incarnation && a.event == b.event)
        << "lifecycle record " << i << " differs";
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ListenerPurityTest,
                         testing::ValuesIn(AllAlgorithms()),
                         [](const testing::TestParamInfo<std::string>& param) {
                           return param.param;
                         });

TEST(ObsPurityTest, SameSeedRunsProduceByteIdenticalArtifacts) {
  RunLengths lengths;
  lengths.batches = 2;
  lengths.batch_length = 4 * kSecond;
  lengths.warmup = kSecond;

  auto run_into = [&](const std::string& tag) {
    EngineConfig config = ContendedConfig();
    config.obs.enabled = true;
    config.obs.sample_interval = kSecond / 2;
    config.obs.sample_path = testing::TempDir() + "obs_ts_" + tag + ".csv";
    config.obs.trace_path = testing::TempDir() + "obs_tr_" + tag + ".json";
    Simulator sim;
    ClosedSystem system(&sim, config);
    system.RunExperiment(lengths.batches, lengths.batch_length,
                         lengths.warmup);
    return std::pair<std::string, std::string>{
        ReadFile(config.obs.sample_path), ReadFile(config.obs.trace_path)};
  };
  auto [csv_a, trace_a] = run_into("a");
  auto [csv_b, trace_b] = run_into("b");
  EXPECT_FALSE(csv_a.empty());
  EXPECT_FALSE(trace_a.empty());
  EXPECT_EQ(csv_a, csv_b);
  EXPECT_EQ(trace_a, trace_b);
}

// --- Phase breakdown -----------------------------------------------------

TEST(PhaseBreakdownTest, BucketsSumToPopulationResponseMean) {
  // With warmup = 0 every commit is measured, so the measured population is
  // exactly the set of committed transactions the lifecycle trace shows —
  // and the phase identity (obs/phase.h) must hold at the population level.
  EngineConfig config = ContendedConfig();
  config.obs.enabled = true;
  MemoryTraceSink sink;
  config.lifecycle_sink = &sink;
  Simulator sim;
  ClosedSystem system(&sim, config);
  MetricsReport report =
      system.RunExperiment(/*batches=*/2, /*batch_length=*/6 * kSecond,
                           /*warmup=*/0);
  ASSERT_GT(report.commits, 0);
  ASSERT_TRUE(report.phases.collected);

  std::map<TxnId, SimTime> submitted;
  double total_response = 0.0;
  int64_t commits = 0;
  for (const TraceRecord& r : sink.records()) {
    if (r.event == TxnEvent::kSubmitted) submitted[r.txn] = r.time;
    if (r.event == TxnEvent::kCommitted) {
      ASSERT_TRUE(submitted.count(r.txn));
      total_response += ToSeconds(r.time - submitted[r.txn]);
      ++commits;
    }
  }
  ASSERT_EQ(commits, report.commits);
  double population_mean = total_response / static_cast<double>(commits);
  EXPECT_NEAR(report.phases.Sum(), population_mean, 1e-9);
  // The interesting buckets are populated under contention.
  EXPECT_GT(report.phases.cpu, 0.0);
  EXPECT_GT(report.phases.disk, 0.0);
  EXPECT_GT(report.phases.cc_block, 0.0);
  EXPECT_GT(report.phases.wasted, 0.0);
}

// --- Engine registry signals ---------------------------------------------

TEST(EngineRegistryTest, CountersMatchEngineTotals) {
  EngineConfig config = ContendedConfig();
  config.obs.enabled = true;
  Simulator sim;
  ClosedSystem system(&sim, config);
  system.RunExperiment(/*batches=*/2, /*batch_length=*/5 * kSecond,
                       /*warmup=*/0);
  const StatsRegistry* registry = system.stats_registry();
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->ValueOf("commits"),
            static_cast<double>(system.total_commits()));
  double restarts = registry->ValueOf("restarts_wound") +
                    registry->ValueOf("restarts_decision") +
                    registry->ValueOf("restarts_validation");
  EXPECT_EQ(restarts, static_cast<double>(system.total_restarts()));
  // Blocking restarts only through deadlock resolution: either the requester
  // is the victim (a cc kRestart decision) or another holder is wounded —
  // never through validation.
  EXPECT_EQ(registry->ValueOf("restarts_validation"), 0.0);
  EXPECT_GT(restarts, 0.0);
  EXPECT_GT(registry->ValueOf("cc_granted"), 0.0);
  EXPECT_GT(registry->ValueOf("cc_blocked"), 0.0);
  EXPECT_GT(registry->ValueOf("deadlock_searches"), 0.0);
  EXPECT_GT(registry->ValueOf("lock_table_objects"), 0.0);
  EXPECT_GT(registry->ValueOf("wasted_cpu_us"), 0.0);
}

TEST(EngineRegistryTest, ValidationRestartsCountedForOptimistic) {
  EngineConfig config = ContendedConfig();
  config.algorithm = "optimistic";
  config.obs.enabled = true;
  Simulator sim;
  ClosedSystem system(&sim, config);
  system.RunExperiment(/*batches=*/2, /*batch_length=*/5 * kSecond,
                       /*warmup=*/0);
  const StatsRegistry* registry = system.stats_registry();
  EXPECT_GT(registry->ValueOf("restarts_validation"), 0.0);
  EXPECT_EQ(registry->ValueOf("restarts_wound"), 0.0);
}

// --- Time-series sampler -------------------------------------------------

TEST(SamplerTest, CsvHasMonotoneTimeAndFullSchema) {
  EngineConfig config = ContendedConfig();
  config.obs.enabled = true;
  config.obs.sample_interval = kSecond / 4;
  config.obs.sample_path = testing::TempDir() + "obs_sampler_test.csv";
  Simulator sim;
  ClosedSystem system(&sim, config);
  system.RunExperiment(/*batches=*/2, /*batch_length=*/4 * kSecond,
                       /*warmup=*/kSecond);

  std::istringstream csv(ReadFile(config.obs.sample_path));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  std::vector<std::string> header = Split(line, ',');
  ASSERT_GT(header.size(), 1u);
  EXPECT_EQ(header[0], "time_s");
  size_t columns = header.size();
  EXPECT_EQ(columns, 1 + system.stats_registry()->num_columns());

  double last_time = -1.0;
  int rows = 0;
  while (std::getline(csv, line)) {
    std::vector<std::string> fields = Split(line, ',');
    EXPECT_EQ(fields.size(), columns);
    double time = std::stod(fields[0]);
    EXPECT_GT(time, last_time);
    last_time = time;
    ++rows;
  }
  // 9 simulated seconds at 4 samples/second.
  EXPECT_GE(rows, 30);
  // The companion gnuplot script plots every column.
  std::string gp = ReadFile(testing::TempDir() + "obs_sampler_test.gp");
  EXPECT_NE(gp.find("obs_sampler_test.csv"), std::string::npos);
  EXPECT_NE(gp.find("columnheader"), std::string::npos);
  std::remove(config.obs.sample_path.c_str());
}

TEST(SamplerTest, FinishCancelsThePendingTickAcrossRuns) {
  // RunExperiment finishes and destroys the sampler; its next tick must not
  // stay queued, or a second RunExperiment on the same engine fires it into
  // freed memory. The unobserved twin has exactly the engine's own events
  // pending.
  EngineConfig config = ContendedConfig();
  config.obs.enabled = true;
  config.obs.sample_interval = kSecond / 2;
  config.obs.sample_path = testing::TempDir() + "obs_sampler_two_runs.csv";
  Simulator sim;
  ClosedSystem system(&sim, config);
  system.RunExperiment(/*batches=*/2, /*batch_length=*/2 * kSecond,
                       /*warmup=*/kSecond);
  const std::string csv = ReadFile(config.obs.sample_path);

  Simulator plain_sim;
  ClosedSystem plain(&plain_sim, ContendedConfig());
  plain.RunExperiment(2, 2 * kSecond, kSecond);
  EXPECT_EQ(sim.pending_events(), plain_sim.pending_events());

  MetricsReport second = system.RunExperiment(2, 2 * kSecond, kSecond);
  EXPECT_GT(second.commits, 0);
  EXPECT_EQ(ReadFile(config.obs.sample_path), csv);  // No rows after Finish.
  std::remove(config.obs.sample_path.c_str());
  std::remove((testing::TempDir() + "obs_sampler_two_runs.gp").c_str());
}

// --- Sampler under resource fault windows --------------------------------

TEST(SamplerFaultWindowTest, FaultedGaugeRegisteredOnlyWhenArmed) {
  // Unfaulted run: no <pool>_faulted gauge anywhere, so the sampler CSV
  // header is byte-identical to a build without the fault subsystem.
  EngineConfig plain = ContendedConfig();
  plain.obs.enabled = true;
  Simulator sim_plain;
  ClosedSystem system_plain(&sim_plain, plain);
  system_plain.RunExperiment(/*batches=*/1, /*batch_length=*/2 * kSecond,
                             /*warmup=*/0);
  for (const std::string& name :
       system_plain.stats_registry()->ColumnNames()) {
    EXPECT_EQ(name.find("_faulted"), std::string::npos) << name;
  }

  // An armed disk window covers the whole array (every disk pool gains the
  // gauge); the unfaulted cpu pool stays bare.
  EngineConfig faulted = ContendedConfig();
  faulted.obs.enabled = true;
  faulted.resources.disk_fault =
      FaultWindow{FaultWindowKind::kStall, 2 * kSecond, 3 * kSecond};
  Simulator sim;
  ClosedSystem system(&sim, faulted);
  system.RunExperiment(/*batches=*/1, /*batch_length=*/2 * kSecond,
                       /*warmup=*/0);
  std::vector<std::string> names = system.stats_registry()->ColumnNames();
  auto has = [&names](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  EXPECT_TRUE(has("disk0_faulted"));
  EXPECT_TRUE(has("disk1_faulted"));
  EXPECT_FALSE(has("cpu_faulted"));
}

TEST(SamplerFaultWindowTest, CsvTracksOutageWindowMonotonically) {
  EngineConfig config = ContendedConfig();
  config.obs.enabled = true;
  config.obs.sample_interval = kSecond / 4;
  config.obs.sample_path = testing::TempDir() + "obs_fault_sampler.csv";
  config.resources.disk_fault =
      FaultWindow{FaultWindowKind::kOutage, 2 * kSecond, 4 * kSecond};
  Simulator sim;
  ClosedSystem system(&sim, config);
  MetricsReport report = system.RunExperiment(
      /*batches=*/2, /*batch_length=*/4 * kSecond, /*warmup=*/0);
  EXPECT_GT(report.commits, 0);

  // Window arithmetic: every disk is out for 2 of the 8 simulated seconds
  // of a disk-bound run, so requests were delayed and charged real delay,
  // and the gauges read exactly the pools' counters.
  EXPECT_GT(system.resources().faulted_requests(), 0);
  EXPECT_GT(system.resources().fault_delay(), 0);
  EXPECT_EQ(system.stats_registry()->ValueOf("disk0_faulted") +
                system.stats_registry()->ValueOf("disk1_faulted"),
            static_cast<double>(system.resources().faulted_requests()));

  // The sampled time series: monotone time, and the faulted counters are
  // cumulative — zero strictly before the window opens, non-decreasing,
  // positive by the end of the run.
  std::istringstream csv(ReadFile(config.obs.sample_path));
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  std::vector<std::string> header = Split(line, ',');
  auto column = [&header](const std::string& name) {
    auto it = std::find(header.begin(), header.end(), name);
    EXPECT_NE(it, header.end()) << name;
    return static_cast<size_t>(it - header.begin());
  };
  size_t disk0 = column("disk0_faulted");
  size_t disk1 = column("disk1_faulted");

  double last_time = -1.0;
  double last_faulted = 0.0;
  while (std::getline(csv, line)) {
    std::vector<std::string> fields = Split(line, ',');
    ASSERT_EQ(fields.size(), header.size());
    double time = std::stod(fields[0]);
    EXPECT_GT(time, last_time);
    last_time = time;
    double faulted = std::stod(fields[disk0]) + std::stod(fields[disk1]);
    EXPECT_GE(faulted, last_faulted);
    // A sample that lands exactly on the window-open instant may already
    // see deferred requests, hence the strict bound.
    if (time < 1.99) {
      EXPECT_EQ(faulted, 0.0) << "at t=" << time;
    }
    last_faulted = faulted;
  }
  EXPECT_GT(last_faulted, 0.0);
  std::remove(config.obs.sample_path.c_str());
  std::remove((testing::TempDir() + "obs_fault_sampler.gp").c_str());
}

// --- Report columns ------------------------------------------------------

TEST(ReportColumnsTest, EnvListReplacesDefaults) {
  ScopedEnv env("CCSIM_REPORT_COLUMNS", "percentiles,phases");
  ReportColumns columns = ReportColumns::FromEnv(ReportColumns());
  EXPECT_TRUE(columns.percentiles);
  EXPECT_TRUE(columns.phases);
  EXPECT_FALSE(columns.response);
  EXPECT_FALSE(columns.ratios);
  EXPECT_FALSE(columns.disk_util);
}

TEST(ReportColumnsTest, AllEnablesEverything) {
  ScopedEnv env("CCSIM_REPORT_COLUMNS", "all");
  ReportColumns columns = ReportColumns::FromEnv(ReportColumns());
  EXPECT_TRUE(columns.response && columns.percentiles && columns.ratios &&
              columns.disk_util && columns.cpu_util && columns.avg_mpl &&
              columns.phases);
}

TEST(ReportColumnsTest, UnsetEnvKeepsDefaults) {
  unsetenv("CCSIM_REPORT_COLUMNS");
  ReportColumns defaults;
  defaults.percentiles = true;
  ReportColumns columns = ReportColumns::FromEnv(defaults);
  EXPECT_TRUE(columns.response);
  EXPECT_TRUE(columns.percentiles);
  EXPECT_FALSE(columns.phases);
}

TEST(ReportColumnsTest, TypoIsHardError) {
  ScopedEnv env("CCSIM_REPORT_COLUMNS", "phasez");
  ScopedCheckTrap trap;
  EXPECT_THROW(ReportColumns::FromEnv(ReportColumns()), CheckFailure);
}

TEST(ReportColumnsTest, PhasesColumnsRenderInTable) {
  ScopedEnv env("CCSIM_REPORT_COLUMNS", "phases");
  MetricsReport report;
  report.algorithm = "blocking";
  report.mpl = 5;
  report.phases.collected = true;
  report.phases.cc_block = 1.25;
  std::ostringstream out;
  PrintReportTable(out, "test", {report});
  EXPECT_NE(out.str().find("ph_blk"), std::string::npos);
  EXPECT_NE(out.str().find("1.25"), std::string::npos);
  EXPECT_EQ(out.str().find("blk_ratio"), std::string::npos);
}

// --- ObsConfig env parsing -----------------------------------------------

TEST(ObsConfigTest, EnvKnobsParse) {
  ScopedEnv obs("CCSIM_OBS", "1");
  ObsConfig config = ObsConfig::FromEnv(ObsConfig{});
  EXPECT_TRUE(config.enabled);
  EXPECT_FALSE(config.SamplingOn());
  EXPECT_FALSE(config.TracingOn());
}

TEST(ObsConfigTest, TraceDirImpliesEnabled) {
  ScopedEnv trace("CCSIM_TRACE", testing::TempDir());
  ObsConfig config = ObsConfig::FromEnv(ObsConfig{});
  EXPECT_TRUE(config.enabled);
  EXPECT_TRUE(config.TracingOn());
}

TEST(ObsConfigTest, SamplingWithoutDirectoryIsHardError) {
  unsetenv("CCSIM_CSV_DIR");
  ScopedEnv sample("CCSIM_SAMPLE_SECONDS", "0.5");
  ScopedCheckTrap trap;
  EXPECT_THROW(ObsConfig::FromEnv(ObsConfig{}), CheckFailure);
}

TEST(ObsConfigTest, NonFiniteSampleIntervalIsHardError) {
  for (const char* value : {"inf", "1e300", "nan"}) {
    SCOPED_TRACE(value);
    ScopedEnv sample("CCSIM_SAMPLE_SECONDS", value);
    ScopedCheckTrap trap;
    EXPECT_THROW(ObsConfig::FromEnv(ObsConfig{}), CheckFailure);
  }
}

TEST(ObsConfigTest, MalformedObsFlagIsHardError) {
  ScopedEnv obs("CCSIM_OBS", "2");
  ScopedCheckTrap trap;
  EXPECT_THROW(ObsConfig::FromEnv(ObsConfig{}), CheckFailure);
}

TEST(ObsConfigTest, ResolvePathsKeysByPoint) {
  ObsConfig config;
  config.enabled = true;
  config.sample_interval = kSecond;
  config.sample_dir = "/tmp/out";
  config.trace_dir = "/tmp/tr";
  ResolveObsPaths(&config, "blocking", 25, 7);
  EXPECT_EQ(config.sample_path, "/tmp/out/ts_blocking_mpl25_seed7.csv");
  EXPECT_EQ(config.trace_path, "/tmp/tr/trace_blocking_mpl25_seed7.json");
}

// --- Heartbeat -----------------------------------------------------------

TEST(HeartbeatThreadTest, TicksPeriodicallyAndStopsOnDestruction) {
  std::atomic<int> ticks{0};
  {
    HeartbeatThread heartbeat(0.02, [&ticks] { ++ticks; });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  int after_destruction = ticks.load();
  EXPECT_GE(after_destruction, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_EQ(ticks.load(), after_destruction);
}

TEST(HeartbeatThreadTest, InertWhenDisabled) {
  std::atomic<int> ticks{0};
  {
    HeartbeatThread heartbeat(0.0, [&ticks] { ++ticks; });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(ticks.load(), 0);
}

}  // namespace
}  // namespace ccsim
