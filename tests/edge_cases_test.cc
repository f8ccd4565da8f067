// Edge cases across layers: degenerate parameters, zero-cost paths, and
// boundary behavior that the mainline tests never hit.
#include <gtest/gtest.h>

#include "analytic/mva.h"
#include "closure_events.h"
#include "core/closed_system.h"
#include "res/server_pool.h"
#include "service_recorder.h"
#include "sim/simulator.h"
#include "wl/workload.h"

namespace ccsim {
namespace {

TEST(SimulatorEdge, EventScheduledExactlyAtRunUntilBoundaryFires) {
  Simulator sim;
  ClosureEvents events(&sim);
  bool fired = false;
  events.Schedule(10, [&] { fired = true; });
  sim.RunUntil(10);
  EXPECT_TRUE(fired);
}

TEST(SimulatorEdge, EventCancelsAnotherAtSameInstant) {
  Simulator sim;
  ClosureEvents events(&sim);
  bool second_fired = false;
  EventId second = events.Schedule(5, [&] { second_fired = true; });
  events.Schedule(5, [&] { sim.Cancel(second); });
  // The canceller was scheduled later, so it fires second: too late.
  sim.Run();
  EXPECT_TRUE(second_fired);

  Simulator sim2;
  ClosureEvents events2(&sim2);
  bool victim_fired = false;
  EventId victim = 0;
  events2.Schedule(5, [&] { sim2.Cancel(victim); });
  victim = events2.Schedule(5, [&] { victim_fired = true; });
  sim2.Run();
  EXPECT_FALSE(victim_fired) << "earlier same-instant event cancels later one";
}

TEST(SimulatorEdge, ScheduleDuringRunUntilWithinBoundaryFires) {
  Simulator sim;
  ClosureEvents events(&sim);
  bool inner = false;
  events.Schedule(5, [&] { events.Schedule(3, [&] { inner = true; }); });
  sim.RunUntil(10);  // Inner lands at 8 <= 10.
  EXPECT_TRUE(inner);
}

TEST(ServerPoolEdge, CcRequestsFcfsAmongThemselves) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.Request(ServicePriority::kNormal, Req(10, 0));
  pool.Request(ServicePriority::kConcurrencyControl, Req(10, 1));
  pool.Request(ServicePriority::kConcurrencyControl, Req(10, 2));
  pool.Request(ServicePriority::kNormal, Req(10, 3));
  sim.Run();
  EXPECT_EQ(sink.tags(), (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST(ServerPoolEdge, InfinitePoolCompletionsOrderedByServiceTime) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 0, true);
  pool.Request(ServicePriority::kNormal, Req(30, 30));
  pool.Request(ServicePriority::kNormal, Req(10, 10));
  pool.Request(ServicePriority::kNormal, Req(20, 20));
  sim.Run();
  EXPECT_EQ(sink.tags(), (std::vector<int64_t>{10, 20, 30}));
}

TEST(WorkloadEdge, ConstantSizeTransactions) {
  WorkloadParams p;
  p.min_size = 6;
  p.max_size = 6;
  p.tran_size = 6;
  WorkloadGenerator gen(p, Rng(1), Rng(2));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(gen.NextTransaction().num_reads(), 6);
  }
}

TEST(WorkloadEdge, TransactionCanSpanWholeDatabase) {
  WorkloadParams p;
  p.db_size = 12;
  p.min_size = 12;
  p.max_size = 12;
  p.tran_size = 12;
  WorkloadGenerator gen(p, Rng(3), Rng(4));
  TxnSpec spec = gen.NextTransaction();
  EXPECT_EQ(spec.num_reads(), 12);
  std::set<ObjectId> unique(spec.reads.begin(), spec.reads.end());
  EXPECT_EQ(unique.size(), 12u);
}

EngineConfig TinyConfig() {
  EngineConfig config;
  config.workload.db_size = 500;
  config.workload.tran_size = 4;
  config.workload.min_size = 2;
  config.workload.max_size = 6;
  config.workload.num_terms = 4;
  config.workload.mpl = 2;
  config.workload.obj_io = FromMillis(5);
  config.workload.obj_cpu = FromMillis(2);
  config.resources = ResourceConfig::Finite(1, 2);
  return config;
}

TEST(EngineEdge, SingleTerminalSingleMpl) {
  Simulator sim;
  EngineConfig config = TinyConfig();
  config.workload.num_terms = 1;
  config.workload.mpl = 1;
  ClosedSystem system(&sim, config);
  MetricsReport r = system.RunExperiment(3, 10 * kSecond, 5 * kSecond);
  EXPECT_GT(r.commits, 0);
  EXPECT_EQ(r.blocks, 0);
  EXPECT_EQ(r.restarts, 0);
}

TEST(EngineEdge, ZeroExternalThinkKeepsSystemSaturated) {
  Simulator sim;
  EngineConfig config = TinyConfig();
  config.workload.ext_think_time = 0;
  ClosedSystem system(&sim, config);
  MetricsReport r = system.RunExperiment(3, 10 * kSecond, 5 * kSecond);
  EXPECT_GT(r.commits, 0);
  // With no think time the mpl slots never go idle.
  EXPECT_NEAR(r.avg_active_mpl, 2.0, 0.05);
}

TEST(EngineEdge, CpuOnlyWorkload) {
  Simulator sim;
  EngineConfig config = TinyConfig();
  config.workload.obj_io = 0;  // No disk at all.
  ClosedSystem system(&sim, config);
  MetricsReport r = system.RunExperiment(3, 10 * kSecond, 5 * kSecond);
  EXPECT_GT(r.commits, 0);
  EXPECT_DOUBLE_EQ(r.disk_util_total.mean, 0.0);
  EXPECT_GT(r.cpu_util_total.mean, 0.0);
}

TEST(EngineEdge, DiskOnlyWorkload) {
  Simulator sim;
  EngineConfig config = TinyConfig();
  config.workload.obj_cpu = 0;
  ClosedSystem system(&sim, config);
  MetricsReport r = system.RunExperiment(3, 10 * kSecond, 5 * kSecond);
  EXPECT_GT(r.commits, 0);
  EXPECT_DOUBLE_EQ(r.cpu_util_total.mean, 0.0);
  EXPECT_GT(r.disk_util_total.mean, 0.0);
}

TEST(EngineEdge, CcCpuCostIsChargedAtPriority) {
  // With cc_cpu half of obj_cpu and ~1 request per access, CPU utilization
  // should rise visibly versus the free-cc default.
  auto cpu_util = [](SimTime cc_cpu) {
    Simulator sim;
    EngineConfig config = TinyConfig();
    config.workload.num_terms = 8;
    config.workload.mpl = 8;
    config.workload.cc_cpu = cc_cpu;
    ClosedSystem system(&sim, config);
    return system.RunExperiment(3, 10 * kSecond, 5 * kSecond)
        .cpu_util_total.mean;
  };
  EXPECT_GT(cpu_util(FromMillis(1)), cpu_util(0) * 1.2);
}

TEST(EngineEdge, ZeroWarmupIsAllowed) {
  Simulator sim;
  ClosedSystem system(&sim, TinyConfig());
  MetricsReport r = system.RunExperiment(3, 10 * kSecond, 0);
  EXPECT_GT(r.commits, 0);
}

TEST(EngineEdge, SequentialExperimentsContinueTheRun) {
  // RunExperiment can be called again; the second window continues from the
  // first (fresh statistics, same system state).
  Simulator sim;
  ClosedSystem system(&sim, TinyConfig());
  MetricsReport first = system.RunExperiment(3, 5 * kSecond, 2 * kSecond);
  SimTime after_first = sim.Now();
  MetricsReport second = system.RunExperiment(3, 5 * kSecond, 0);
  EXPECT_GT(sim.Now(), after_first);
  EXPECT_GT(second.commits, 0);
  EXPECT_EQ(second.batches, 3);
  // The second measurement's intervals must cover only its own batches.
  EXPECT_EQ(second.throughput.batches, 3);
  EXPECT_EQ(first.throughput.batches, 3);
  EXPECT_GT(first.commits + second.commits, first.commits);
}

TEST(MvaEdge, PopulationZeroIsAllZeros) {
  MvaSolver solver({}, 1.0);
  MvaResult r = solver.Solve(0);
  EXPECT_DOUBLE_EQ(r.throughput, 0.0);
  EXPECT_DOUBLE_EQ(r.response_time, 0.0);
}

TEST(MvaEdge, NoQueueingStationMeansInfiniteBottleneck) {
  MvaStation d;
  d.name = "delay";
  d.kind = MvaStation::Kind::kDelay;
  d.visit_ratio = 1;
  d.service_time = 0.5;
  MvaSolver solver({d}, 0.0);
  EXPECT_TRUE(std::isinf(solver.BottleneckThroughput()));
}

}  // namespace
}  // namespace ccsim
