// Tests of the benchmark's metric code on synthetic inputs.
#include <gtest/gtest.h>

#include <set>

#include "common/flops.hpp"
#include "metrics.hpp"

using namespace perfbench;
using ptlr::rt::TraceEvent;

namespace {

TraceEvent event(int kind, int worker, double start, double end) {
  TraceEvent ev;
  ev.kind = kind;
  ev.worker = worker;
  ev.start = start;
  ev.end = end;
  return ev;
}

}  // namespace

TEST(Order, MedianOddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

// Expected values are what Python prints for statistics.quantiles(v, n=4).
TEST(Order, QuartilesMatchPythonStatistics) {
  // quantiles([1..10]) -> [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // quantiles([1, 2]) -> [0.75, 1.5, 2.25]: cut points clamp to the ends
  // and extrapolate.
  const Quartiles two = quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q2, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  // quantiles([1, 2, 4, 8, 16]) -> [1.5, 4.0, 12.0]
  const Quartiles five = quartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q2, 4.0);
  EXPECT_DOUBLE_EQ(five.q3, 12.0);
  const Quartiles one = quartiles({3.0});
  EXPECT_DOUBLE_EQ(one.q1, 3.0);
  EXPECT_DOUBLE_EQ(one.q3, 3.0);
  EXPECT_THROW(quartiles({}), std::invalid_argument);
}

TEST(Failures, ShareOfAttempted) {
  EXPECT_DOUBLE_EQ(failed_frac(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(failed_frac(1, 4), 0.25);
  EXPECT_DOUBLE_EQ(failed_frac(3, 3), 1.0);
  EXPECT_THROW(failed_frac(0, 0), std::invalid_argument);
  EXPECT_THROW(failed_frac(2, 1), std::invalid_argument);
  EXPECT_THROW(failed_frac(-1, 1), std::invalid_argument);
}

TEST(Trace, ClassLabelsFollowTableIKernels) {
  using K = ptlr::flops::Kernel;
  EXPECT_EQ(class_label(static_cast<int>(K::kPotrf1)), "potrf1");
  EXPECT_EQ(class_label(static_cast<int>(K::kTrsm4)), "trsm4");
  EXPECT_EQ(class_label(static_cast<int>(K::kSyrk3)), "syrk3");
  EXPECT_EQ(class_label(static_cast<int>(K::kGemm5)), "gemm5");
  EXPECT_EQ(class_label(static_cast<int>(K::kGemm6)), "gemm6");
  EXPECT_EQ(class_label(-1), "other");
  EXPECT_EQ(class_label(ptlr::flops::kNumKernels), "other");
}

TEST(Trace, PerClassSplitSumsCountsAndSeconds) {
  using K = ptlr::flops::Kernel;
  const int gemm5 = static_cast<int>(K::kGemm5);
  const std::vector<TraceEvent> trace = {
      event(gemm5, 0, 0.0, 0.5), event(gemm5, 1, 0.25, 1.0),
      event(static_cast<int>(K::kPotrf1), 0, 0.5, 0.75),
      event(-1, 1, 1.0, 1.125)};
  const auto split = class_split(trace);
  EXPECT_EQ(split.size(), class_labels().size() + 1);
  EXPECT_EQ(split.at("gemm5").count, 2);
  EXPECT_DOUBLE_EQ(split.at("gemm5").seconds, 1.25);
  EXPECT_EQ(split.at("potrf1").count, 1);
  EXPECT_DOUBLE_EQ(split.at("potrf1").seconds, 0.25);
  EXPECT_EQ(split.at("other").count, 1);
  EXPECT_DOUBLE_EQ(split.at("other").seconds, 0.125);
  EXPECT_EQ(split.at("gemm6").count, 0);
  EXPECT_DOUBLE_EQ(split.at("gemm6").seconds, 0.0);
}

TEST(Trace, BusyIdleSplitOverWorkersAndMakespan) {
  // Two workers over a 2 s makespan: 1.5 s + 1 s busy, 1.5 s idle.
  const std::vector<TraceEvent> trace = {event(5, 0, 0.0, 1.5),
                                         event(5, 1, 0.5, 1.5)};
  const Occupancy o = occupancy(trace, 2.0, 2);
  EXPECT_DOUBLE_EQ(o.busy_s, 2.5);
  EXPECT_DOUBLE_EQ(o.idle_s, 1.5);
  EXPECT_DOUBLE_EQ(o.busy_frac, 0.625);
  const Occupancy empty = occupancy({}, 0.0, 2);
  EXPECT_DOUBLE_EQ(empty.busy_frac, 0.0);
  EXPECT_DOUBLE_EQ(empty.idle_s, 0.0);
}

TEST(Catalog, EveryPerLayerMetricNamesAnExistingMetricAndWorkload) {
  EXPECT_TRUE(catalog_errors().empty());
  std::set<std::string> e2e, wls;
  for (const auto& m : end_to_end_metrics()) e2e.insert(m.name);
  wls.insert(workloads().begin(), workloads().end());
  EXPECT_EQ(wls, (std::set<std::string>{"pipeline", "factor_tight",
                                        "dist_socket"}));
  EXPECT_TRUE(e2e.count("setup_s"));
  for (const auto& m : per_layer_metrics()) {
    ASSERT_FALSE(m.moves.empty()) << m.name;
    for (const auto& mv : m.moves) {
      EXPECT_TRUE(e2e.count(mv.metric)) << m.name << " -> " << mv.metric;
      EXPECT_TRUE(wls.count(mv.workload)) << m.name << " -> " << mv.workload;
    }
  }
}

TEST(Catalog, PerLayerCoversEveryKernelClass) {
  std::set<std::string> names;
  for (const auto& m : per_layer_metrics()) names.insert(m.name);
  for (const auto& label : class_labels())
    for (const char* suffix : {".s", ".count", ".gflops"})
      EXPECT_TRUE(names.count("hcore." + label + suffix)) << label << suffix;
  EXPECT_TRUE(names.count("hcore.other.s"));
}

TEST(ReportLine, ExactKeysAndAllDigits) {
  Report r;
  r.set("time_to_solution_s", 1.0 / 3.0);
  r.set("cpu_s", 2.5);
  r.set("setup_s", 0.125);
  r.set("peak_rss_mb", 100.0);
  r.set("rel_residual", 4.75e-7);
  r.set("verified_frac", 1.0);
  const std::string line = r.result_line(end_to_end_metrics(), true, 3, 0);
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                       "\"metrics\": {",
                       0),
            0u);
  EXPECT_NE(line.find("\"time_to_solution_s\": {\"value\": "
                      "0.33333333333333331, \"unit\": \"s\"}"),
            std::string::npos);
  EXPECT_NE(line.find("\"rel_residual\": {\"value\": 4.75e-07, "
                      "\"unit\": \"ratio\"}"),
            std::string::npos);
}

TEST(ReportLine, RefusesMissingUnknownOrNonFiniteMetrics) {
  Report missing;
  missing.set("time_to_solution_s", 1.0);
  EXPECT_THROW((void)missing.result_line(end_to_end_metrics(), true, 1, 0),
               std::runtime_error);
  Report unknown;
  for (const auto& m : end_to_end_metrics()) unknown.set(m.name, 1.0);
  unknown.set("no.such_metric", 1.0);
  EXPECT_THROW((void)unknown.result_line(end_to_end_metrics(), true, 1, 0),
               std::runtime_error);
  Report nan;
  for (const auto& m : end_to_end_metrics()) nan.set(m.name, 1.0);
  nan.set("cpu_s", std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW((void)nan.result_line(end_to_end_metrics(), true, 1, 0),
               std::runtime_error);
}
