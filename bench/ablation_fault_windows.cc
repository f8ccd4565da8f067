// Ablation: graceful degradation under simulated resource-fault windows
// (docs/FAULTS.md, "Fault windows").
//
// The paper's thrashing analysis is about the system degrading *gracefully*
// as contention rises; this bench asks the same question about transient
// resource faults. Each algorithm runs the limited-resource base point
// three ways: fault-free, with a mid-run disk-array stall window, and with
// a mid-run CPU outage window. A robust harness shows bounded throughput
// loss (work deferred by the window completes after it) and elevated — but
// finite — response times; a livelock-prone one would blow its event
// budget and fail the point instead of printing a row.
//
// The windows open well past warmup and close well before the run ends, so
// every deferred request completes inside the measured interval.
#include <iostream>

#include "bench/harness.h"
#include "util/str.h"

int main() {
  using namespace ccsim;
  RunLengths lengths = bench::BenchLengths();
  bench::PrintBanner(
      "Ablation — graceful degradation under disk-stall and CPU-outage "
      "windows (1 cpu x 2 disks, mpl=50)",
      lengths);

  EngineConfig base = bench::PaperBaseConfig();
  base.resources = ResourceConfig::Finite(1, 2);
  base.workload.mpl = 50;

  // One window sized to a few hundred transaction times, opening after the
  // first measured batch is underway.
  const SimTime window_start = lengths.warmup + lengths.batch_length / 2;
  const SimTime window_end = window_start + lengths.batch_length;

  std::vector<bench::LabeledPoint> points;
  for (const std::string& algorithm : PaperAlgorithms()) {
    EngineConfig baseline = base;
    baseline.algorithm = algorithm;
    points.push_back({algorithm + " / no fault", baseline});

    EngineConfig disk_stall = baseline;
    disk_stall.resources.disk_fault = {FaultWindowKind::kStall, window_start,
                                       window_end};
    points.push_back({algorithm + " / disk stall", disk_stall});

    EngineConfig cpu_outage = baseline;
    cpu_outage.resources.cpu_fault = {FaultWindowKind::kOutage, window_start,
                                      window_end};
    points.push_back({algorithm + " / cpu outage", cpu_outage});
  }

  std::vector<MetricsReport> reports = bench::RunLabeledPoints(points, lengths);

  ReportColumns columns = ReportColumns::ThroughputOnly();
  columns.response = true;
  columns.ratios = true;
  columns.avg_mpl = true;
  bench::EmitFigure(
      "Fault-window degradation (expect bounded loss, no livelock)",
      "ablation_fault_windows", reports, columns);
  return bench::BenchExitCode();
}
