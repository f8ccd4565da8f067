// Unit tests for the physical resource layer: server pools, priority
// classes, the partitioned disk array, utilization accounting, and the
// simulated fault windows.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "closure_events.h"
#include "res/resources.h"
#include "res/server_pool.h"
#include "service_recorder.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace ccsim {
namespace {

TEST(ServerPoolTest, SingleServerServesFcfs) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, /*infinite=*/false);
  pool.Request(ServicePriority::kNormal, Req(10, 1));
  pool.Request(ServicePriority::kNormal, Req(10, 2));
  pool.Request(ServicePriority::kNormal, Req(10, 3));
  EXPECT_EQ(pool.busy_servers(), 1);
  EXPECT_EQ(pool.queue_length(), 2u);
  sim.Run();
  EXPECT_EQ(sink.tags(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(pool.completed_requests(), 3);
}

TEST(ServerPoolTest, CcPriorityJumpsQueue) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.Request(ServicePriority::kNormal, Req(10, 1));
  pool.Request(ServicePriority::kNormal, Req(10, 2));
  pool.Request(ServicePriority::kConcurrencyControl, Req(10, 3));
  sim.Run();
  // Request 1 is in service; the cc request preempts the *queue*, not the
  // server, so order is 1, 3, 2.
  EXPECT_EQ(sink.tags(), (std::vector<int64_t>{1, 3, 2}));
}

TEST(ServerPoolTest, MultipleServersRunConcurrently) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 3, false);
  for (int i = 0; i < 3; ++i) pool.Request(ServicePriority::kNormal, Req(10));
  EXPECT_EQ(pool.busy_servers(), 3);
  EXPECT_EQ(pool.queue_length(), 0u);
  sim.Run();
  EXPECT_EQ(sim.Now(), 10);  // All in parallel.
  EXPECT_EQ(sink.count(), 3);
}

TEST(ServerPoolTest, FourthRequestWaitsForFreeServer) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 3, false);
  for (int i = 0; i < 3; ++i) pool.Request(ServicePriority::kNormal, Req(10));
  pool.Request(ServicePriority::kNormal, Req(5, 4));
  sim.Run();
  EXPECT_EQ(sink.DoneAt(4), 15);  // Waits until 10, then 5 of service.
}

TEST(ServerPoolTest, InfinitePoolNeverQueues) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 0, /*infinite=*/true);
  for (int i = 0; i < 100; ++i) {
    pool.Request(ServicePriority::kNormal, Req(10));
  }
  EXPECT_EQ(pool.queue_length(), 0u);
  EXPECT_EQ(pool.busy_servers(), 100);
  sim.Run();
  EXPECT_EQ(sim.Now(), 10);  // Pure delay: all finish together.
  EXPECT_EQ(sink.count(), 100);
}

TEST(ServerPoolTest, UtilizationFullyBusy) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.Request(ServicePriority::kNormal, Req(100));
  sim.Run();
  EXPECT_DOUBLE_EQ(pool.Utilization(sim.Now()), 1.0);
}

TEST(ServerPoolTest, UtilizationHalfBusy) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.Request(ServicePriority::kNormal, Req(50));
  sim.Run();
  sim.RunUntil(100);
  EXPECT_DOUBLE_EQ(pool.Utilization(sim.Now()), 0.5);
}

TEST(ServerPoolTest, UtilizationPerServerFraction) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 2, false);
  pool.Request(ServicePriority::kNormal, Req(100));  // One of two busy.
  sim.Run();
  EXPECT_DOUBLE_EQ(pool.Utilization(sim.Now()), 0.5);
}

TEST(ServerPoolTest, WindowResetClearsUtilization) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.Request(ServicePriority::kNormal, Req(50));
  sim.Run();
  pool.ResetWindow(sim.Now());
  sim.RunUntil(100);
  EXPECT_DOUBLE_EQ(pool.Utilization(sim.Now()), 0.0);
}

TEST(ServerPoolTest, WaitTimeStats) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.Request(ServicePriority::kNormal, Req(10));
  pool.Request(ServicePriority::kNormal, Req(10));
  sim.Run();
  // First waited 0, second waited 10 (in seconds: 1e-5).
  EXPECT_EQ(pool.wait_time_stats().count(), 2);
  EXPECT_NEAR(pool.wait_time_stats().Max(), ToSeconds(10), 1e-12);
}

TEST(ServerPoolTest, MeanQueueLength) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.Request(ServicePriority::kNormal, Req(10));
  pool.Request(ServicePriority::kNormal, Req(10));  // Queued for [0,10).
  sim.Run();
  // Queue length 1 for 10 of 20 time units = 0.5.
  EXPECT_DOUBLE_EQ(pool.MeanQueueLength(sim.Now()), 0.5);
}

TEST(ServerPoolTest, InfiniteUtilizationReportsZero) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 0, true);
  pool.Request(ServicePriority::kNormal, Req(10));
  sim.Run();
  EXPECT_DOUBLE_EQ(pool.Utilization(sim.Now()), 0.0);
  EXPECT_GT(pool.MeanBusyServers(sim.Now()), 0.0);
}

bool SameRecord(const ServiceRequest& a, const ServiceRequest& b) {
  return a.kind == b.kind && a.incarnation == b.incarnation && a.txn == b.txn &&
         a.service == b.service && a.requested_at == b.requested_at;
}

TEST(ServerPoolTest, RecordComesBackFieldForField) {
  // The pool treats everything but `service` as opaque payload: whatever
  // path a request takes — straight into service, queued behind a busy
  // server, overtaken by a cc request, or held by an outage — the sink gets
  // back exactly the record that went in, stamped with its arrival time.
  Simulator sim;
  ClosureEvents events(&sim);
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.SetFaultWindow({FaultWindowKind::kOutage, 100, 200});
  auto make = [&sim](uint8_t kind, int32_t incarnation, int64_t txn,
                     SimTime service) {
    ServiceRequest request;
    request.kind = kind;
    request.incarnation = incarnation;
    request.txn = txn;
    request.service = service;
    request.requested_at = sim.Now();  // What the pool stamps.
    return request;
  };
  std::vector<ServiceRequest> sent;
  // t=0: one in service, one queued normal, then a cc request overtaking it.
  sent.push_back(make(1, 7, 101, 10));
  sent.push_back(make(2, 8, 102, 20));
  sent.push_back(make(6, -3, 103, 5));
  pool.Request(ServicePriority::kNormal, sent[0]);
  pool.Request(ServicePriority::kNormal, sent[1]);
  pool.Request(ServicePriority::kConcurrencyControl, sent[2]);
  // t=90: would complete at 120, inside the outage — held until 200.
  events.Schedule(90, [&] {
    sent.push_back(make(255, 1 << 30, int64_t{1} << 40, 30));
    pool.Request(ServicePriority::kNormal, sent.back());
  });
  sim.Run();

  ASSERT_EQ(sink.count(), 4);
  EXPECT_EQ(sink.tags(),
            (std::vector<int64_t>{101, 103, 102, int64_t{1} << 40}));
  const int order[] = {0, 2, 1, 3};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(SameRecord(sink.done[static_cast<size_t>(i)],
                           sent[static_cast<size_t>(order[i])]))
        << "completion " << i;
  }
  EXPECT_EQ(sink.done_at, (std::vector<SimTime>{10, 15, 35, 200}));
  EXPECT_EQ(pool.faulted_requests(), 1);
  EXPECT_EQ(pool.fault_delay(), 80);  // Held from 120 to 200.
}

TEST(ResourceManagerTest, FiniteConfigShape) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ResourceManager rm(&sim, ResourceConfig::Finite(2, 4), Rng(1), &sink);
  EXPECT_EQ(rm.num_disks(), 4);
  EXPECT_EQ(rm.cpu().num_servers(), 2);
  EXPECT_FALSE(rm.cpu().infinite());
}

TEST(ResourceManagerTest, InfiniteConfigShape) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ResourceManager rm(&sim, ResourceConfig::Infinite(), Rng(1), &sink);
  EXPECT_TRUE(rm.cpu().infinite());
  EXPECT_EQ(rm.num_disks(), 1);  // One infinite pool stands in for all disks.
  EXPECT_TRUE(rm.disk(0).infinite());
}

TEST(ResourceManagerTest, RandomDiskSpreadsLoad) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ResourceManager rm(&sim, ResourceConfig::Finite(1, 4), Rng(7), &sink);
  for (int i = 0; i < 400; ++i) rm.RequestDisk(Req(1));
  sim.Run();
  for (int d = 0; d < 4; ++d) {
    // Each disk should see roughly 100 of 400 accesses.
    EXPECT_GT(rm.disk(d).completed_requests(), 60);
    EXPECT_LT(rm.disk(d).completed_requests(), 140);
  }
}

TEST(ResourceManagerTest, RequestDiskAtTargetsSpecificDisk) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ResourceManager rm(&sim, ResourceConfig::Finite(1, 3), Rng(7), &sink);
  rm.RequestDiskAt(2, Req(10));
  sim.Run();
  EXPECT_EQ(rm.disk(2).completed_requests(), 1);
  EXPECT_EQ(rm.disk(0).completed_requests(), 0);
}

TEST(ResourceManagerTest, DiskUtilizationIsMeanAcrossDisks) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ResourceManager rm(&sim, ResourceConfig::Finite(1, 2), Rng(7), &sink);
  rm.RequestDiskAt(0, Req(100));  // Disk 0 fully busy, disk 1 idle.
  sim.Run();
  EXPECT_DOUBLE_EQ(rm.DiskUtilization(sim.Now()), 0.5);
}

TEST(ResourceManagerTest, CpuUtilization) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ResourceManager rm(&sim, ResourceConfig::Finite(1, 1), Rng(7), &sink);
  rm.RequestCpu(ServicePriority::kNormal, Req(25));
  sim.Run();
  sim.RunUntil(100);
  EXPECT_DOUBLE_EQ(rm.CpuUtilization(sim.Now()), 0.25);
}

TEST(ResourceManagerTest, ResetWindowResetsAllPools) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ResourceManager rm(&sim, ResourceConfig::Finite(1, 2), Rng(7), &sink);
  rm.RequestCpu(ServicePriority::kNormal, Req(10));
  rm.RequestDiskAt(0, Req(10));
  sim.Run();
  rm.ResetWindow(sim.Now());
  sim.RunUntil(20);
  EXPECT_DOUBLE_EQ(rm.CpuUtilization(sim.Now()), 0.0);
  EXPECT_DOUBLE_EQ(rm.DiskUtilization(sim.Now()), 0.0);
}

TEST(ResourceManagerTest, SingleDiskSkipsRng) {
  // With one disk the choice is deterministic and must not consume random
  // numbers (keeps workloads comparable across disk counts).
  Simulator sim;
  ServiceRecorder sink(&sim);
  ResourceManager rm(&sim, ResourceConfig::Finite(1, 1), Rng(55), &sink);
  for (int i = 0; i < 10; ++i) rm.RequestDisk(Req(1));
  sim.Run();
  EXPECT_EQ(rm.disk(0).completed_requests(), 10);
}

// ---------------------------------------------------------------------------
// Simulated fault windows (docs/FAULTS.md, "Fault windows").

TEST(FaultWindowTest, StallDefersNewStartsUntilWindowEnds) {
  Simulator sim;
  ClosureEvents events(&sim);
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.SetFaultWindow({FaultWindowKind::kStall, 10, 20});
  events.Schedule(12, [&] { pool.Request(ServicePriority::kNormal, Req(5)); });
  sim.Run();
  // Arrived at 12 into an *idle* pool, but the window queues it anyway;
  // the drain at 20 starts the 5 µs of service.
  EXPECT_EQ(sink.DoneAt(0), 25);
  EXPECT_EQ(pool.faulted_requests(), 1);
  EXPECT_EQ(pool.fault_delay(), 8);  // 20 - 12 spent waiting on the window.
}

TEST(FaultWindowTest, StallLetsInFlightWorkComplete) {
  Simulator sim;
  ClosureEvents events(&sim);
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.SetFaultWindow({FaultWindowKind::kStall, 10, 20});
  // Starts at 8, completes at 13 — inside the window, but a stall only
  // blocks new starts; in-flight service is unaffected.
  events.Schedule(8, [&] { pool.Request(ServicePriority::kNormal, Req(5)); });
  sim.Run();
  EXPECT_EQ(sink.DoneAt(0), 13);
  EXPECT_EQ(pool.faulted_requests(), 0);
  EXPECT_EQ(pool.fault_delay(), 0);
}

TEST(FaultWindowTest, OutageHoldsCompletionsToWindowEnd) {
  Simulator sim;
  ClosureEvents events(&sim);
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.SetFaultWindow({FaultWindowKind::kOutage, 10, 20});
  // Starts at 8, would complete at 13 — but the device is off the bus, so
  // the completion lands when the window lifts.
  events.Schedule(8, [&] { pool.Request(ServicePriority::kNormal, Req(5)); });
  sim.Run();
  EXPECT_EQ(sink.DoneAt(0), 20);
  EXPECT_EQ(pool.faulted_requests(), 1);
  EXPECT_EQ(pool.fault_delay(), 7);  // Held from 13 to 20.
}

TEST(FaultWindowTest, DrainServesCcClassFirst) {
  Simulator sim;
  ClosureEvents events(&sim);
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.SetFaultWindow({FaultWindowKind::kStall, 10, 20});
  events.Schedule(11, [&] {
    pool.Request(ServicePriority::kNormal, Req(5, 1));
  });
  events.Schedule(12, [&] {
    pool.Request(ServicePriority::kConcurrencyControl, Req(5, 2));
  });
  sim.Run();
  // The drain respects the two-class discipline: cc work deferred by the
  // window still jumps the normal queue.
  EXPECT_EQ(sink.tags(), (std::vector<int64_t>{2, 1}));
  EXPECT_EQ(pool.faulted_requests(), 2);
}

TEST(FaultWindowTest, InfinitePoolStallsQueueAndDrainTogether) {
  Simulator sim;
  ClosureEvents events(&sim);
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 0, /*infinite=*/true);
  pool.SetFaultWindow({FaultWindowKind::kStall, 10, 20});
  events.Schedule(15, [&] {
    for (int i = 0; i < 8; ++i) pool.Request(ServicePriority::kNormal, Req(5));
  });
  sim.Run();
  // An infinite pool normally never queues; during the window it must, and
  // the drain releases the whole backlog at once (all complete at 25).
  EXPECT_EQ(sim.Now(), 25);
  EXPECT_EQ(sink.count(), 8);
  EXPECT_EQ(pool.faulted_requests(), 8);
  EXPECT_EQ(pool.fault_delay(), 8 * 5);  // Each waited 15 -> 20.
}

TEST(FaultWindowTest, CompletedWindowIsInertAfterwards) {
  Simulator sim;
  ClosureEvents events(&sim);
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  pool.SetFaultWindow({FaultWindowKind::kStall, 10, 20});
  events.Schedule(30, [&] { pool.Request(ServicePriority::kNormal, Req(5)); });
  sim.Run();
  EXPECT_EQ(sink.DoneAt(0), 35);  // Past the window: plain FCFS service.
  EXPECT_EQ(pool.faulted_requests(), 0);
}

TEST(FaultWindowDeathTest, RejectsMalformedWindows) {
  Simulator sim;
  ServiceRecorder sink(&sim);
  ServerPool pool(&sim, &sink, 1, false);
  EXPECT_DEATH(pool.SetFaultWindow({FaultWindowKind::kStall, 20, 10}), "");
  ServerPool armed(&sim, &sink, 1, false);
  armed.SetFaultWindow({FaultWindowKind::kStall, 10, 20});
  EXPECT_DEATH(armed.SetFaultWindow({FaultWindowKind::kStall, 30, 40}), "");
}

TEST(ResourceManagerTest, DiskFaultWindowArmsEveryDiskAndAggregates) {
  Simulator sim;
  ClosureEvents events(&sim);
  ResourceConfig config = ResourceConfig::Finite(1, 2);
  config.disk_fault = {FaultWindowKind::kStall, 10, 20};
  ServiceRecorder sink(&sim);
  ResourceManager rm(&sim, config, Rng(55), &sink);
  events.Schedule(12, [&] {
    rm.RequestDiskAt(0, Req(5));
    rm.RequestDiskAt(1, Req(5));
  });
  sim.Run();
  EXPECT_TRUE(rm.disk(0).fault_window().enabled());
  EXPECT_TRUE(rm.disk(1).fault_window().enabled());
  EXPECT_FALSE(rm.cpu().fault_window().enabled());
  EXPECT_EQ(rm.faulted_requests(), 2);  // Summed across the array.
  EXPECT_EQ(rm.fault_delay(), 2 * 8);
}

TEST(ResourceManagerTest, FaultedGaugeRegisteredOnlyWhenWindowArmed) {
  // The `<pool>_faulted` gauge only exists for pools with an armed window:
  // an unfaulted run's sampler CSV schema must stay byte-identical to the
  // pre-fault-window builds.
  Simulator sim;
  ResourceConfig config = ResourceConfig::Finite(1, 2);
  config.cpu_fault = {FaultWindowKind::kOutage, 10, 20};
  ServiceRecorder sink(&sim);
  ResourceManager rm(&sim, config, Rng(55), &sink);
  StatsRegistry registry;
  rm.RegisterStats(&registry);
  auto columns = registry.ColumnNames();
  auto has = [&](const std::string& name) {
    return std::find(columns.begin(), columns.end(), name) != columns.end();
  };
  EXPECT_TRUE(has("cpu_faulted"));
  EXPECT_FALSE(has("disk0_faulted"));
  EXPECT_FALSE(has("disk1_faulted"));

  Simulator plain_sim;
  ServiceRecorder plain_sink(&plain_sim);
  ResourceManager plain(&plain_sim, ResourceConfig::Finite(1, 2), Rng(55),
                        &plain_sink);
  StatsRegistry plain_registry;
  plain.RegisterStats(&plain_registry);
  for (const std::string& name : plain_registry.ColumnNames()) {
    EXPECT_EQ(name.find("_faulted"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace ccsim
