#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/flops.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("quartiles of an empty sample");
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return {v[0], v[0], v[0]};
  // statistics.quantiles(method='exclusive', n=4): the i-th cut point sits
  // at position i*(m+1)/4 (1-based) and interpolates its two neighbours.
  const long long m = static_cast<long long>(v.size());
  double cut[3];
  for (int i = 1; i <= 3; ++i) {
    const long long j = std::clamp(i * (m + 1) / 4, 1LL, m - 1);
    const long long delta = i * (m + 1) - j * 4;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    cut[i - 1] = (lo * static_cast<double>(4 - delta) +
                  hi * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double failed_frac(long long failed, long long attempted) {
  if (attempted < 1 || failed < 0 || failed > attempted)
    throw std::invalid_argument("failed_frac: need 0 <= failed <= attempted, "
                                "attempted >= 1");
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

const std::vector<std::string>& class_labels() {
  static const std::vector<std::string> labels = {
      "potrf1", "trsm1", "trsm4", "syrk1", "syrk3",
      "gemm1",  "gemm2", "gemm3", "gemm5", "gemm6"};
  return labels;
}

std::string class_label(int kind) {
  const auto& labels = class_labels();
  static_assert(ptlr::flops::kNumKernels == 10,
                "class_labels() lists the Table I kernels in order");
  if (kind < 0 || kind >= static_cast<int>(labels.size())) return "other";
  return labels[static_cast<std::size_t>(kind)];
}

std::map<std::string, ClassTime> class_split(
    const std::vector<ptlr::rt::TraceEvent>& trace) {
  std::map<std::string, ClassTime> split;
  for (const auto& label : class_labels()) split[label] = {};
  split["other"] = {};
  for (const auto& ev : trace) {
    ClassTime& c = split[class_label(ev.kind)];
    ++c.count;
    c.seconds += ev.end - ev.start;
  }
  return split;
}

Occupancy occupancy(const std::vector<ptlr::rt::TraceEvent>& trace,
                    double makespan_s, int workers) {
  Occupancy o;
  for (const auto& ev : trace) o.busy_s += ev.end - ev.start;
  const double capacity = makespan_s * static_cast<double>(workers);
  o.idle_s = std::max(0.0, capacity - o.busy_s);
  o.busy_frac = capacity > 0.0 ? o.busy_s / capacity : 0.0;
  return o;
}

// ---------------------------------------------------------------- catalog

const std::vector<std::string>& workloads() {
  static const std::vector<std::string> w = {"pipeline", "factor_tight",
                                             "dist_socket"};
  return w;
}

namespace {

std::vector<Moves> on(const std::string& metric,
                      std::initializer_list<const char*> wls) {
  std::vector<Moves> m;
  for (const char* w : wls) m.push_back({metric, w});
  return m;
}

std::vector<Moves> join(std::vector<Moves> a, const std::vector<Moves>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

const char* const kTts = "time_to_solution_s";

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> m = {
      {kTts, "s", "all", "lower", {},
       "median wall seconds of one repetition of the timed span"},
      {"cpu_s", "s", "all", "lower", {},
       "median CPU seconds of one repetition, summed over threads and rank "
       "processes"},
      {"setup_s", "s", "all", "lower", {},
       "work before the timed span (problem build, set-up compression, mesh "
       "connect and placement), median of several set-ups"},
      {"peak_rss_mb", "MB", "all", "lower", {},
       "peak resident memory, summed over rank processes"},
      {"rel_residual", "ratio", "core", "lower", {},
       "||z - Sigma x|| / ||z|| against the kernel operator"},
      {"verified_frac", "ratio", "all", "higher", {},
       "verified repetitions over attempted ones (1 - failed_frac)"},
  };
  return m;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> m = [] {
    const auto tts_pipe = on(kTts, {"pipeline"});
    const auto setup_else = on("setup_s", {"factor_tight", "dist_socket"});
    const auto rt_moves = on(kTts, {"factor_tight", "pipeline"});
    const auto dist_moves = on(kTts, {"dist_socket"});
    const auto net_moves =
        join(on("setup_s", {"dist_socket"}), on(kTts, {"dist_socket"}));
    std::vector<MetricSpec> v = {
        {"stars.tile_gen_s", "s", "stars", "lower",
         join(tts_pipe, setup_else),
         "all lower-triangle fill_block calls, timed alone"},
        {"tlr.from_problem_s", "s", "tlr", "lower", tts_pipe,
         "band-1 build: sequential from_problem in a pipeline repetition, "
         "the set-up's from_problem_parallel (4 threads) elsewhere"},
        {"compress.initial_s", "s", "compress", "lower", tts_pipe,
         "tlr.from_problem_s minus stars.tile_gen_s over the build's "
         "threads"},
        {"compress.useful_tile_frac", "ratio", "compress", "higher", tts_pipe,
         "off-diagonal tiles still low-rank after tuning over tiles "
         "compressed"},
        {"core.tune_s", "s", "core", "lower", tts_pipe,
         "Algorithm 1 BAND_SIZE tuning (CholeskyResult::tune_seconds)"},
        {"tlr.densify_s", "s", "tlr", "lower", tts_pipe,
         "band regeneration (CholeskyResult::regen_seconds)"},
        {"core.graph_s", "s", "core", "lower", tts_pipe,
         "factorize wall minus tune, densify and executor time"},
        {"core.band_size", "count", "core", "lower", tts_pipe,
         "tuned BAND_SIZE, a check on the tuner"},
        {"runtime.exec_s", "s", "runtime", "lower", rt_moves,
         "executor makespan (ExecResult::seconds)"},
        {"runtime.tasks", "count", "runtime", "lower", rt_moves,
         "tasks executed"},
        {"runtime.busy_frac", "ratio", "runtime", "higher", rt_moves,
         "summed task time over workers x makespan"},
        {"runtime.idle_s", "s", "runtime", "lower", rt_moves,
         "workers x makespan minus summed task time"},
        {"runtime.steals", "count", "runtime", "lower", rt_moves,
         "SchedStats::steals"},
        {"runtime.parks", "count", "runtime", "lower", rt_moves,
         "SchedStats::parks"},
        {"runtime.inline_runs", "count", "runtime", "higher", rt_moves,
         "SchedStats::inline_runs"},
        {"runtime.nested_spawned", "count", "runtime", "higher", rt_moves,
         "SchedStats::nested_spawned"},
        {"runtime.speedup_vs_1w", "ratio", "runtime", "higher", rt_moves,
         "executor makespan at 1 worker over makespan at 2 workers, same "
         "matrix"},
    };
    for (const auto& label : class_labels()) {
      const auto moves = (label == "gemm5" || label == "gemm6")
                             ? on(kTts, {"factor_tight", "pipeline"})
                             : on(kTts, {"pipeline", "factor_tight"});
      v.push_back({"hcore." + label + ".s", "s", "hcore", "lower", moves,
                   "summed task seconds of class " + label});
      v.push_back({"hcore." + label + ".count", "count", "hcore", "lower",
                   moves,
                   "tasks of class " + label});
      v.push_back({"hcore." + label + ".gflops", "Gflop/s", "hcore", "higher",
                   moves,
                   "measured flops (obs::Counters) over summed task "
                   "seconds of class " +
                       label});
    }
    const std::vector<MetricSpec> rest = {
        {"hcore.other.s", "s", "hcore", "lower",
         on(kTts, {"pipeline", "factor_tight"}),
         "summed seconds of split/merge tasks of the recursive kernels"},
        {"dense.gemm_peak_gflops", "Gflop/s", "dense", "higher",
         on(kTts, {"pipeline", "factor_tight"}),
         "one b x b dense GEMM on one thread, the peak the class rates read "
         "against"},
        {"compress.recompressions", "count", "compress", "lower",
         join(on(kTts, {"factor_tight"}), on("rel_residual", {"factor_tight"})),
         "recompressions in the LR updates (CompressionCounters::count)"},
        {"compress.rank_out_mean", "count", "compress", "lower",
         join(on(kTts, {"factor_tight"}), on("rel_residual", {"factor_tight"})),
         "mean rank leaving a recompression"},
        {"compress.fallbacks", "count", "compress", "lower",
         join(on(kTts, {"factor_tight"}), on("rel_residual", {"factor_tight"})),
         "adaptive-engine attempts that fell back to CPQR+SVD"},
        {"tlr.footprint_mb", "MB", "tlr", "lower",
         on("peak_rss_mb", {"pipeline", "factor_tight", "dist_socket"}),
         "exact-rank storage of the factored matrix"},
        {"dist.factor_s", "s", "core", "lower", dist_moves,
         "median over repetitions of the slowest rank's factor seconds"},
        {"dist.compute_s", "s", "core", "lower", dist_moves,
         "mean over ranks of factor seconds minus blocked-receive seconds"},
        {"dist.blocked_recv_s", "s", "core", "lower", dist_moves,
         "mean over ranks of RankCommStats::blocked_recv_seconds"},
        {"dist.blocked_recv_frac", "ratio", "core", "lower", dist_moves,
         "dist.blocked_recv_s over mean rank factor seconds"},
        {"dist.messages", "count", "core", "lower", dist_moves,
         "tile messages put on the wire, all ranks"},
        {"dist.bytes", "B", "core", "lower", dist_moves,
         "payload bytes of those messages, all ranks"},
        {"dist.root_egress_bytes", "B", "core", "lower", dist_moves,
         "bytes sent as broadcast origin, all ranks"},
        {"dist.forwards", "count", "core", "higher", dist_moves,
         "tree forwards, all ranks"},
        {"dist.prefetch_hit_frac", "ratio", "core", "higher", dist_moves,
         "tile gets served from already-arrived bytes over all gets"},
        {"dist.speedup_vs_1w", "ratio", "core", "higher", dist_moves,
         "1-worker shared-memory executor makespan on the same densified "
         "matrix over dist.factor_s"},
        {"net.mesh_up_s", "s", "net", "lower", net_moves,
         "SocketTransport construction (rendezvous + handshake), median"},
        {"net.frames_sent", "count", "net", "lower", net_moves,
         "MSG frames written, all ranks (PeerWireStats)"},
        {"net.bytes_sent", "B", "net", "lower", net_moves,
         "MSG bytes written, all ranks"},
        {"net.retransmits", "count", "net", "lower", net_moves,
         "frames resent by the RTO loop, all ranks and repetitions"},
        {"core.placement", "enum", "core", "lower", net_moves,
         "negotiated placement: 0 1d, 1 2d, 2 band"},
        {"core.placement_probe_s", "s", "core", "lower", net_moves,
         "core::negotiate_placement wall seconds on rank 0"},
        {"resilience.events", "count", "resilience", "lower",
         on(kTts, {"pipeline", "factor_tight", "dist_socket"}),
         "RecoveryStats total; 0 with no faults injected"},
        {"obs.trace_overhead_frac", "ratio", "obs", "lower",
         on(kTts, {"pipeline", "factor_tight", "dist_socket"}),
         "traced over untraced time_to_solution_s, minus 1"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return m;
}

std::vector<std::string> catalog_errors() {
  std::vector<std::string> errors;
  std::set<std::string> e2e, wls, seen;
  wls.insert(workloads().begin(), workloads().end());
  for (const auto& s : end_to_end_metrics()) e2e.insert(s.name);
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const auto& s : *list)
      if (!seen.insert(s.name).second)
        errors.push_back("metric " + s.name + " is listed twice");
  for (const auto& s : per_layer_metrics()) {
    if (s.moves.empty())
      errors.push_back(s.name + " names no end-to-end metric it moves");
    for (const auto& mv : s.moves) {
      if (e2e.count(mv.metric) == 0)
        errors.push_back(s.name + " names unknown end-to-end metric " +
                         mv.metric);
      if (wls.count(mv.workload) == 0)
        errors.push_back(s.name + " names unknown workload " + mv.workload);
    }
  }
  return errors;
}

// ----------------------------------------------------------------- report

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

void Report::set_median(const std::string& name,
                        const std::vector<double>& samples) {
  values_[name] = median(samples);
  samples_[name] = samples;
}

std::vector<double> Report::samples(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

bool Report::has(const std::string& name) const {
  return values_.count(name) != 0;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::out_of_range("no metric " + name);
  return it->second;
}

std::string Report::result_line(const std::vector<MetricSpec>& specs,
                                bool correct, long long attempted,
                                long long failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& s : specs) {
    const auto it = values_.find(s.name);
    if (it == values_.end())
      throw std::runtime_error("metric " + s.name + " was not measured");
    if (!std::isfinite(it->second))
      throw std::runtime_error("metric " + s.name + " is not finite");
    os << (first ? "" : ", ") << json_string(s.name)
       << ": {\"value\": " << json_number(it->second)
       << ", \"unit\": " << json_string(s.unit) << "}";
    first = false;
  }
  os << "}}";
  std::set<std::string> known;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const auto& s : *list) known.insert(s.name);
  for (const auto& [name, value] : values_)
    if (known.count(name) == 0)
      throw std::runtime_error("metric " + name + " is not in the catalog");
  return os.str();
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
