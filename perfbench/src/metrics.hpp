// Metric code of the end-to-end benchmark, kept free of workload logic so
// it can be tested on synthetic inputs (test_metrics.cpp):
//   * order statistics (median, quartiles as Python's statistics.quantiles
//     computes them with n=4, the rule the spread check uses);
//   * the failure share of a run;
//   * the per-kernel-class split and busy/idle occupancy of an executor
//     trace (rt::TraceEvent lists, read from outside the library);
//   * the catalog of every workload and metric, with the end-to-end metric
//     and workload each per-layer metric should move;
//   * the result line the benchmark prints last.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "runtime/trace.hpp"

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes). Throws
/// on an empty sample.
double median(std::vector<double> v);

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Cut points of statistics.quantiles(v, n=4) (the default 'exclusive'
/// method). A single value yields three equal cut points. Throws on an
/// empty sample.
Quartiles quartiles(std::vector<double> v);

/// failed / attempted; attempted must be >= 1 and failed <= attempted.
double failed_frac(long long failed, long long attempted);

/// Short label of a Table I kernel class: "potrf1", ..., "gemm6"; any
/// other kind (split/merge tasks of the recursive kernels) is "other".
std::string class_label(int kind);

/// Labels of the ten Table I classes, in flops::Kernel order.
const std::vector<std::string>& class_labels();

struct ClassTime {
  long long count = 0;
  double seconds = 0.0;
};

/// Task count and summed task duration per class label. Every label of
/// class_labels() plus "other" is present, zero when no task ran.
std::map<std::string, ClassTime> class_split(
    const std::vector<ptlr::rt::TraceEvent>& trace);

/// How the workers of one executor run spent the makespan.
struct Occupancy {
  double busy_s = 0.0;    ///< summed task durations
  double idle_s = 0.0;    ///< workers x makespan - busy (never negative)
  double busy_frac = 0.0; ///< busy / (workers x makespan)
};

Occupancy occupancy(const std::vector<ptlr::rt::TraceEvent>& trace,
                    double makespan_s, int workers);

/// The end-to-end metric and workload a per-layer metric should move.
struct Moves {
  std::string metric;
  std::string workload;
};

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string layer;  ///< repo module the number comes from
  /// "lower" | "higher"; nominal for the checks core.band_size and
  /// core.placement, whose change is news either way.
  std::string better;
  std::vector<Moves> moves;  ///< empty for end-to-end metrics
  std::string meaning;
};

/// Workload names; their parameters and reasons are in BENCHMARK.json and
/// README.md, their code in shared_memory.cpp and dist_socket.cpp.
const std::vector<std::string>& workloads();
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Problems the catalog has, e.g. a per-layer metric that names an
/// end-to-end metric or a workload that does not exist, or a name used
/// twice. Empty when the catalog is consistent.
std::vector<std::string> catalog_errors();

/// Named metric values of one run, checked against a catalog list when the
/// result line is written.
class Report {
 public:
  void set(const std::string& name, double value);
  /// Set `name` to the median of `samples` and keep the samples for the
  /// human-readable lines.
  void set_median(const std::string& name, const std::vector<double>& samples);
  /// Samples behind a set_median value (empty for plain values).
  [[nodiscard]] std::vector<double> samples(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double get(const std::string& name) const;

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// exactly the metrics of `specs`, each with its unit. Throws if one is
  /// missing or not finite, or if a value is set that no catalog lists.
  [[nodiscard]] std::string result_line(
      const std::vector<MetricSpec>& specs, bool correct,
      long long attempted, long long failed) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
};

/// `v` printed with all 17 significant digits, as JSON accepts it.
std::string json_number(double v);

/// `s` as a JSON string literal.
std::string json_string(const std::string& s);

}  // namespace perfbench
