// The report renderers' output contract. Every bench table, CSV and gnuplot
// script goes through core/report.cc, and the reference-CSV diffs in
// scripts/bench_smoke.sh depend on its bytes, so these tests pin the literal
// output of each rendering. The fixture reaches every column: two
// algorithms (the blank line between them), reals with eight significant
// digits (each format's rounding), counts past 10^6 (integer columns stay
// integers), a report that collected blame beside ones that did not, an
// all-default report (0/0 attribution fractions) and multi-class reports.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/report.h"

namespace ccsim {
namespace {

// A report with every rendered field set: reals with eight significant
// digits scaled by `k`, so no two columns or reports agree, and counts past
// 10^6.
MetricsReport Full(const std::string& algorithm, int mpl, int k) {
  MetricsReport r;
  r.algorithm = algorithm;
  r.mpl = mpl;
  r.throughput = {.mean = 12.345678 * k, .half_width = 0.98765432 * k};
  r.response_mean.mean = 3.1415927 * k;
  r.response_stddev = 2.7182818 * k;
  r.response_p50 = 1.4142136 * k;
  r.response_p90 = 5.6789012 * k;
  r.response_p99 = 9.8765432 * k;
  r.response_max = 23.456789 * k;
  r.block_ratio.mean = 0.12345678 * k;
  r.restart_ratio.mean = 0.23456789 * k;
  r.disk_util_total.mean = 0.87654321 * k;
  r.disk_util_useful.mean = 0.65432109 * k;
  r.cpu_util_total.mean = 0.54321098 * k;
  r.cpu_util_useful.mean = 0.43210987 * k;
  r.avg_active_mpl = 24.567891 * k;
  r.commits = 1234567 * k;
  r.restarts = 234567 * k;
  r.blocks = 3456789 * k;
  r.measured_seconds = 19.876543 * k;
  r.phases = {.collected = true,
              .ready = 0.1020304 * k,
              .cc_block = 1.2030405 * k,
              .cpu = 0.3040506 * k,
              .disk = 2.4050607 * k,
              .resource_wait = 0.5060708 * k,
              .think = 3.6070809 * k,
              .restart_delay = 0.70809012 * k,
              .wasted = 4.8091011 * k,
              .other = 0.90101112 * k};
  r.per_class = {{.name = "default",
                  .commits = r.commits,
                  .restarts = r.restarts,
                  .response_mean = r.response_mean.mean,
                  .response_stddev = r.response_stddev,
                  .response_max = r.response_max}};
  return r;
}

BlameBreakdown CollectedBlame() {
  return {.collected = true,
          .wasted_us = 12345678,
          .blocked_us = 7654321,
          .wasted_attributed_us = 9876543,
          .wasted_unattributed_us = 2469135,
          .blocked_attributed_us = 6543210,
          .blocked_unattributed_us = 1111111,
          .restarts_charged = 1234321,
          .blocks_charged = 2345432,
          .genealogy_max = 17,
          .genealogy_mean = 1.2345678,
          .top_aborter = 42,
          .top_aborter_wasted_us = 3456789,
          .top_holder = 7,
          .top_holder_blocked_us = 4567890};
}

std::vector<ClassMetrics> TwoClasses(int k) {
  return {{.name = "short",
           .commits = 1123456 * k,
           .restarts = 23456 * k,
           .response_mean = 1.2345678 * k,
           .response_stddev = 0.54321098 * k,
           .response_max = 7.6543211 * k},
          {.name = "long",
           .commits = 345678 * k,
           .restarts = 12345 * k,
           .response_mean = 8.7654321 * k,
           .response_stddev = 3.2109877 * k,
           .response_max = 45.678901 * k}};
}

// Blame collected by the first report only; the last is all-default.
std::vector<MetricsReport> Fixture() {
  std::vector<MetricsReport> reports = {Full("blocking", 10, 1),
                                        Full("blocking", 50, 3),
                                        Full("optimistic", 10, 2),
                                        MetricsReport{}};
  reports[0].blame = CollectedBlame();
  reports[0].per_class = TwoClasses(1);
  reports[2].per_class = TwoClasses(2);
  return reports;
}

std::vector<MetricsReport> PlainFixture() {
  std::vector<MetricsReport> reports = Fixture();
  reports[0].blame = BlameBreakdown{};
  return reports;
}

// The bytes of the file `write` writes to a path of this test's own (ctest
// runs the tests in parallel processes).
template <typename Write>
std::string Written(Write write) {
  const std::string path =
      testing::TempDir() + "report_golden_" +
      testing::UnitTest::GetInstance()->current_test_info()->name();
  EXPECT_TRUE(write(path));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  return text.str();
}

std::string Csv(const std::vector<MetricsReport>& reports) {
  return Written([&reports](const std::string& path) {
    return WriteReportCsv(path, reports);
  });
}

std::string Table(const ReportColumns& columns) {
  unsetenv("CCSIM_REPORT_COLUMNS");  // When set, it replaces `columns`.
  std::ostringstream out;
  PrintReportTable(out, "golden", Fixture(), columns);
  return out.str();
}

std::string PerClassTable() {
  std::ostringstream out;
  PrintPerClassTable(out, "golden", Fixture());
  return out.str();
}

std::string Gnuplot() {
  return Written([](const std::string& path) {
    return WriteThroughputGnuplot(path, "golden.csv", "golden", Fixture());
  });
}

constexpr const char* kGroups[] = {"response", "percentiles", "ratios",
                                   "disk",     "cpu",         "mpl",
                                   "phases",   "blame"};
constexpr char kTwoGroups[] = "phases,ratios";

constexpr char kPlainCsv[] =
    "algorithm,mpl,throughput,throughput_hw,response_mean,response_sd,"
    "response_p50,response_p90,response_p99,response_max,block_ratio,"
    "restart_ratio,disk_util_total,disk_util_useful,cpu_util_total,"
    "cpu_util_useful,avg_active_mpl,commits,restarts,blocks,"
    "measured_seconds,phase_ready,phase_cc_block,phase_cpu,phase_disk,"
    "phase_res_wait,phase_think,phase_restart_delay,phase_wasted,"
    "phase_other\n"
    "blocking,10,12.3457,0.987654,3.14159,2.71828,1.41421,5.6789,9.87654,"
    "23.4568,0.123457,0.234568,0.876543,0.654321,0.543211,0.43211,24.5679,"
    "1234567,234567,3456789,19.8765,0.10203,1.20304,0.304051,2.40506,"
    "0.506071,3.60708,0.70809,4.8091,0.901011\n"
    "blocking,50,37.037,2.96296,9.42478,8.15485,4.24264,17.0367,29.6296,"
    "70.3704,0.37037,0.703704,2.62963,1.96296,1.62963,1.29633,73.7037,"
    "3703701,703701,10370367,59.6296,0.306091,3.60912,0.912152,7.21518,"
    "1.51821,10.8212,2.12427,14.4273,2.70303\n"
    "optimistic,10,24.6914,1.97531,6.28319,5.43656,2.82843,11.3578,19.7531,"
    "46.9136,0.246914,0.469136,1.75309,1.30864,1.08642,0.86422,49.1358,"
    "2469134,469134,6913578,39.7531,0.204061,2.40608,0.608101,4.81012,"
    "1.01214,7.21416,1.41618,9.6182,1.80202\n"
    ",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n";

constexpr char kMixedBlameCsv[] =
    "algorithm,mpl,throughput,throughput_hw,response_mean,response_sd,"
    "response_p50,response_p90,response_p99,response_max,block_ratio,"
    "restart_ratio,disk_util_total,disk_util_useful,cpu_util_total,"
    "cpu_util_useful,avg_active_mpl,commits,restarts,blocks,"
    "measured_seconds,phase_ready,phase_cc_block,phase_cpu,phase_disk,"
    "phase_res_wait,phase_think,phase_restart_delay,phase_wasted,"
    "phase_other,blame_wasted_us,blame_wasted_attr_us,blame_blocked_us,"
    "blame_blocked_attr_us,blame_restarts_charged,blame_blocks_charged,"
    "blame_genealogy_mean,blame_genealogy_max,blame_top_aborter_us,"
    "blame_top_holder_us\n"
    "blocking,10,12.3457,0.987654,3.14159,2.71828,1.41421,5.6789,9.87654,"
    "23.4568,0.123457,0.234568,0.876543,0.654321,0.543211,0.43211,24.5679,"
    "1234567,234567,3456789,19.8765,0.10203,1.20304,0.304051,2.40506,"
    "0.506071,3.60708,0.70809,4.8091,0.901011,12345678,9876543,7654321,"
    "6543210,1234321,2345432,1.23457,17,3456789,4567890\n"
    "blocking,50,37.037,2.96296,9.42478,8.15485,4.24264,17.0367,29.6296,"
    "70.3704,0.37037,0.703704,2.62963,1.96296,1.62963,1.29633,73.7037,"
    "3703701,703701,10370367,59.6296,0.306091,3.60912,0.912152,7.21518,"
    "1.51821,10.8212,2.12427,14.4273,2.70303,0,0,0,0,0,0,0,0,0,0\n"
    "optimistic,10,24.6914,1.97531,6.28319,5.43656,2.82843,11.3578,19.7531,"
    "46.9136,0.246914,0.469136,1.75309,1.30864,1.08642,0.86422,49.1358,"
    "2469134,469134,6913578,39.7531,0.204061,2.40608,0.608101,4.81012,"
    "1.01214,7.21416,1.41618,9.6182,1.80202,0,0,0,0,0,0,0,0,0,0\n"
    ",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
    "0,0,0,0,0\n";

constexpr char kAllDefaultCsv[] =
    "algorithm,mpl,throughput,throughput_hw,response_mean,response_sd,"
    "response_p50,response_p90,response_p99,response_max,block_ratio,"
    "restart_ratio,disk_util_total,disk_util_useful,cpu_util_total,"
    "cpu_util_useful,avg_active_mpl,commits,restarts,blocks,"
    "measured_seconds,phase_ready,phase_cc_block,phase_cpu,phase_disk,"
    "phase_res_wait,phase_think,phase_restart_delay,phase_wasted,"
    "phase_other\n"
    ",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n";

constexpr char kDefaultTable[] =
    "\n"
    "== golden ==\n"
    "algorithm            mpl   thruput   +-90%  resp(s)  resp_sd blk_ratio"
    " rst_ratio  d_util d_usefl  avg_mpl\n"
    "----------------------------------------------------------------------"
    "-----------------------------------\n"
    "blocking              10     12.35    0.99     3.14     2.72     0.123"
    "     0.235   0.877   0.654     24.6\n"
    "blocking              50     37.04    2.96     9.42     8.15     0.370"
    "     0.704   2.630   1.963     73.7\n"
    "\n"
    "optimistic            10     24.69    1.98     6.28     5.44     0.247"
    "     0.469   1.753   1.309     49.1\n"
    "\n"
    "                       0      0.00    0.00     0.00     0.00     0.000"
    "     0.000   0.000   0.000      0.0\n";

constexpr char kThroughputOnlyTable[] =
    "\n"
    "== golden ==\n"
    "algorithm            mpl   thruput   +-90%\n"
    "------------------------------------------\n"
    "blocking              10     12.35    0.99\n"
    "blocking              50     37.04    2.96\n"
    "\n"
    "optimistic            10     24.69    1.98\n"
    "\n"
    "                       0      0.00    0.00\n";

// Each of kGroups alone, in that order.
constexpr const char* kGroupTables[] = {
    // response
    "\n"
    "== golden ==\n"
    "algorithm            mpl   thruput   +-90%  resp(s)  resp_sd\n"
    "------------------------------------------------------------\n"
    "blocking              10     12.35    0.99     3.14     2.72\n"
    "blocking              50     37.04    2.96     9.42     8.15\n"
    "\n"
    "optimistic            10     24.69    1.98     6.28     5.44\n"
    "\n"
    "                       0      0.00    0.00     0.00     0.00\n",
    // percentiles
    "\n"
    "== golden ==\n"
    "algorithm            mpl   thruput   +-90%     p50     p90     p99\n"
    "------------------------------------------------------------------\n"
    "blocking              10     12.35    0.99    1.41    5.68    9.88\n"
    "blocking              50     37.04    2.96    4.24   17.04   29.63\n"
    "\n"
    "optimistic            10     24.69    1.98    2.83   11.36   19.75\n"
    "\n"
    "                       0      0.00    0.00    0.00    0.00    0.00\n",
    // ratios
    "\n"
    "== golden ==\n"
    "algorithm            mpl   thruput   +-90% blk_ratio rst_ratio\n"
    "--------------------------------------------------------------\n"
    "blocking              10     12.35    0.99     0.123     0.235\n"
    "blocking              50     37.04    2.96     0.370     0.704\n"
    "\n"
    "optimistic            10     24.69    1.98     0.247     0.469\n"
    "\n"
    "                       0      0.00    0.00     0.000     0.000\n",
    // disk
    "\n"
    "== golden ==\n"
    "algorithm            mpl   thruput   +-90%  d_util d_usefl\n"
    "----------------------------------------------------------\n"
    "blocking              10     12.35    0.99   0.877   0.654\n"
    "blocking              50     37.04    2.96   2.630   1.963\n"
    "\n"
    "optimistic            10     24.69    1.98   1.753   1.309\n"
    "\n"
    "                       0      0.00    0.00   0.000   0.000\n",
    // cpu
    "\n"
    "== golden ==\n"
    "algorithm            mpl   thruput   +-90%  c_util c_usefl\n"
    "----------------------------------------------------------\n"
    "blocking              10     12.35    0.99   0.543   0.432\n"
    "blocking              50     37.04    2.96   1.630   1.296\n"
    "\n"
    "optimistic            10     24.69    1.98   1.086   0.864\n"
    "\n"
    "                       0      0.00    0.00   0.000   0.000\n",
    // mpl
    "\n"
    "== golden ==\n"
    "algorithm            mpl   thruput   +-90%  avg_mpl\n"
    "---------------------------------------------------\n"
    "blocking              10     12.35    0.99     24.6\n"
    "blocking              50     37.04    2.96     73.7\n"
    "\n"
    "optimistic            10     24.69    1.98     49.1\n"
    "\n"
    "                       0      0.00    0.00      0.0\n",
    // phases
    "\n"
    "== golden ==\n"
    "algorithm            mpl   thruput   +-90%  ph_rdy  ph_blk  ph_cpu"
    "  ph_dsk  ph_rwt  ph_thk  ph_rdl  ph_wst  ph_oth\n"
    "----------------------------------------------------------------------"
    "--------------------------------------------\n"
    "blocking              10     12.35    0.99    0.10    1.20    0.30"
    "    2.41    0.51    3.61    0.71    4.81    0.90\n"
    "blocking              50     37.04    2.96    0.31    3.61    0.91"
    "    7.22    1.52   10.82    2.12   14.43    2.70\n"
    "\n"
    "optimistic            10     24.69    1.98    0.20    2.41    0.61"
    "    4.81    1.01    7.21    1.42    9.62    1.80\n"
    "\n"
    "                       0      0.00    0.00    0.00    0.00    0.00"
    "    0.00    0.00    0.00    0.00    0.00    0.00\n",
    // blame
    "\n"
    "== golden ==\n"
    "algorithm            mpl   thruput   +-90% wst_attr blk_attr gen_avg"
    " gen_max\n"
    "----------------------------------------------------------------------"
    "------\n"
    "blocking              10     12.35    0.99    0.800    0.855    1.23"
    "      17\n"
    "blocking              50     37.04    2.96    0.000    0.000    0.00"
    "       0\n"
    "\n"
    "optimistic            10     24.69    1.98    0.000    0.000    0.00"
    "       0\n"
    "\n"
    "                       0      0.00    0.00    0.000    0.000    0.00"
    "       0\n",
};

constexpr char kTwoGroupTable[] =
    "\n"
    "== golden ==\n"
    "algorithm            mpl   thruput   +-90% blk_ratio rst_ratio  ph_rdy"
    "  ph_blk  ph_cpu  ph_dsk  ph_rwt  ph_thk  ph_rdl  ph_wst  ph_oth\n"
    "----------------------------------------------------------------------"
    "----------------------------------------------------------------\n"
    "blocking              10     12.35    0.99     0.123     0.235    0.10"
    "    1.20    0.30    2.41    0.51    3.61    0.71    4.81    0.90\n"
    "blocking              50     37.04    2.96     0.370     0.704    0.31"
    "    3.61    0.91    7.22    1.52   10.82    2.12   14.43    2.70\n"
    "\n"
    "optimistic            10     24.69    1.98     0.247     0.469    0.20"
    "    2.41    0.61    4.81    1.01    7.21    1.42    9.62    1.80\n"
    "\n"
    "                       0      0.00    0.00     0.000     0.000    0.00"
    "    0.00    0.00    0.00    0.00    0.00    0.00    0.00    0.00\n";

constexpr char kAllTable[] =
    "\n"
    "== golden ==\n"
    "algorithm            mpl   thruput   +-90%  resp(s)  resp_sd     p50"
    "     p90     p99 blk_ratio rst_ratio  d_util d_usefl  c_util c_usefl"
    "  avg_mpl  ph_rdy  ph_blk  ph_cpu  ph_dsk  ph_rwt  ph_thk  ph_rdl"
    "  ph_wst  ph_oth wst_attr blk_attr gen_avg gen_max\n"
    "----------------------------------------------------------------------"
    "----------------------------------------------------------------------"
    "----------------------------------------------------------------------"
    "-----------------------------------------\n"
    "blocking              10     12.35    0.99     3.14     2.72    1.41"
    "    5.68    9.88     0.123     0.235   0.877   0.654   0.543   0.432"
    "     24.6    0.10    1.20    0.30    2.41    0.51    3.61    0.71"
    "    4.81    0.90    0.800    0.855    1.23      17\n"
    "blocking              50     37.04    2.96     9.42     8.15    4.24"
    "   17.04   29.63     0.370     0.704   2.630   1.963   1.630   1.296"
    "     73.7    0.31    3.61    0.91    7.22    1.52   10.82    2.12"
    "   14.43    2.70    0.000    0.000    0.00       0\n"
    "\n"
    "optimistic            10     24.69    1.98     6.28     5.44    2.83"
    "   11.36   19.75     0.247     0.469   1.753   1.309   1.086   0.864"
    "     49.1    0.20    2.41    0.61    4.81    1.01    7.21    1.42"
    "    9.62    1.80    0.000    0.000    0.00       0\n"
    "\n"
    "                       0      0.00    0.00     0.00     0.00    0.00"
    "    0.00    0.00     0.000     0.000   0.000   0.000   0.000   0.000"
    "      0.0    0.00    0.00    0.00    0.00    0.00    0.00    0.00"
    "    0.00    0.00    0.000    0.000    0.00       0\n";

constexpr char kPerClassTable[] =
    "\n"
    "== golden (per class) ==\n"
    "algorithm            mpl class          commits  restarts  resp(s)"
    "  resp_sd resp_max\n"
    "blocking              10 short          1123456     23456     1.23"
    "     0.54     7.65\n"
    "blocking              10 long            345678     12345     8.77"
    "     3.21    45.68\n"
    "optimistic            10 short          2246912     46912     2.47"
    "     1.09    15.31\n"
    "optimistic            10 long            691356     24690    17.53"
    "     6.42    91.36\n";

constexpr char kGnuplot[] =
    "# Generated by ccsim; renders throughput-vs-mpl from golden.csv\n"
    "set datafile separator ','\n"
    "set title \"golden\"\n"
    "set xlabel 'multiprogramming level'\n"
    "set ylabel 'throughput (transactions/sec)'\n"
    "set key outside right\n"
    "set grid\n"
    "set term pngcairo size 900,600\n"
    "set output 'golden.csv.png'\n"
    "plot \\\n"
    "  'golden.csv' using 2:(strcol(1) eq \"blocking\" ? column(3) : 1/0)"
    " with linespoints title \"blocking\", \\\n"
    "  'golden.csv' using 2:(strcol(1) eq \"optimistic\" ? column(3) : 1/0)"
    " with linespoints title \"optimistic\", \\\n"
    "  'golden.csv' using 2:(strcol(1) eq \"\" ? column(3) : 1/0) with"
    " linespoints title \"\"\n";

TEST(ReportGoldenTest, PlainCsv) { EXPECT_EQ(Csv(PlainFixture()), kPlainCsv); }

TEST(ReportGoldenTest, MixedBlameCsv) {
  EXPECT_EQ(Csv(Fixture()), kMixedBlameCsv);
}

TEST(ReportGoldenTest, AllDefaultCsv) {
  EXPECT_EQ(Csv({MetricsReport{}}), kAllDefaultCsv);
}

TEST(ReportGoldenTest, DefaultTable) {
  EXPECT_EQ(Table(ReportColumns()), kDefaultTable);
}

TEST(ReportGoldenTest, ThroughputOnlyTable) {
  EXPECT_EQ(Table(ReportColumns::ThroughputOnly()), kThroughputOnlyTable);
}

TEST(ReportGoldenTest, EachGroupAloneTable) {
  for (size_t i = 0; i < std::size(kGroups); ++i) {
    SCOPED_TRACE(kGroups[i]);
    EXPECT_EQ(Table(ReportColumns::Parse(kGroups[i])), kGroupTables[i]);
  }
}

TEST(ReportGoldenTest, TwoGroupTable) {
  EXPECT_EQ(Table(ReportColumns::Parse(kTwoGroups)), kTwoGroupTable);
}

TEST(ReportGoldenTest, AllTable) {
  EXPECT_EQ(Table(ReportColumns::Parse("all")), kAllTable);
}

TEST(ReportGoldenTest, PerClassTable) {
  EXPECT_EQ(PerClassTable(), kPerClassTable);
}

TEST(ReportGoldenTest, Gnuplot) { EXPECT_EQ(Gnuplot(), kGnuplot); }

}  // namespace
}  // namespace ccsim
