// ptlr-e2e: the end-to-end benchmark of the TLR Cholesky pipeline.
//
//   ptlr-e2e --workload pipeline|factor_tight|dist_socket --seed N
//            --seconds S --trace 0|1 [--scratch DIR] [--commit SHA]
//   ptlr-e2e --list
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// alternates untraced and traced repetitions and reports the per-layer
// metrics. Lines before the last are for people; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. --list prints the
// workload and metric catalog as JSON. See README.md.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

extern char** environ;

namespace {

using namespace perfbench;

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE_ARCH
#define PERFBENCH_NATIVE_ARCH "unknown"
#endif

// Samples are listed on a metric's line up to this many.
constexpr std::size_t kListSamples = 16;

/// The library reads PTLR_* knobs (engines, chaos, faults, tracing) from
/// the environment; a benchmark run must not inherit them.
void scrub_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("PTLR_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

std::string catalog_json() {
  std::string s = "{\"workloads\": [";
  for (std::size_t i = 0; i < workloads().size(); ++i)
    s += (i ? ", " : "") + std::string("{\"name\": ") +
         json_string(workloads()[i]) + "}";
  s += "]";
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    s += list == &end_to_end_metrics() ? ", \"end_to_end\": ["
                                       : ", \"per_layer\": [";
    for (std::size_t i = 0; i < list->size(); ++i) {
      const auto& m = (*list)[i];
      std::string moves;
      for (const auto& mv : m.moves)
        moves += (moves.empty() ? "" : ", ") +
                 json_string(mv.metric + "@" + mv.workload);
      s += (i ? ", " : "") + std::string("{\"name\": ") + json_string(m.name) +
           ", \"unit\": " + json_string(m.unit) +
           ", \"layer\": " + json_string(m.layer) +
           ", \"better\": " + json_string(m.better) + ", \"moves\": [" +
           moves + "], \"meaning\": " + json_string(m.meaning) + "}";
    }
    s += "]";
  }
  return s + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "ptlr-e2e: %s\nusage: ptlr-e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scratch DIR] [--commit SHA] | "
               "--list\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  scrub_environment();
  const auto errors = catalog_errors();
  for (const auto& e : errors) std::fprintf(stderr, "catalog: %s\n", e.c_str());
  if (!errors.empty()) return 2;

  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list") {
      std::cout << catalog_json() << "\n";
      return 0;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      return usage(("bad argument " + key).c_str());
    args[key.substr(2)] = argv[++i];
  }
  Options opt;
  std::string commit = "unknown";
  try {
    for (const auto& [k, v] : args) {
      if (k == "workload") opt.workload = v;
      else if (k == "seed") opt.seed = std::stoull(v);
      else if (k == "seconds") opt.seconds = std::stod(v);
      else if (k == "trace") opt.trace = std::stoi(v) != 0;
      else if (k == "scratch") opt.scratch = v;
      else if (k == "commit") commit = v;
      else return usage(("unknown option --" + k).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  Outcome (*run)(const Options&, Report&) = nullptr;
  if (opt.workload == "pipeline") run = run_pipeline;
  else if (opt.workload == "factor_tight") run = run_factor_tight;
  else if (opt.workload == "dist_socket") run = run_dist_socket;
  else return usage(("unknown workload '" + opt.workload + "'").c_str());

  std::printf("# meta {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"nproc\": %ld, \"compiler\": %s, "
              "\"build_type\": %s, \"PTLR_DENSE_NATIVE_ARCH\": %s, "
              "\"commit\": %s}\n",
              json_string(opt.workload).c_str(),
              static_cast<unsigned long long>(opt.seed),
              json_number(opt.seconds).c_str(), opt.trace ? 1 : 0,
              sysconf(_SC_NPROCESSORS_ONLN), json_string(kCompiler).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(),
              json_string(PERFBENCH_NATIVE_ARCH).c_str(),
              json_string(commit).c_str());
  std::fflush(stdout);

  Report report;
  Outcome out;
  try {
    out = run(opt, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptlr-e2e: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }
  for (const auto& e : out.errors) std::printf("# failure: %s\n", e.c_str());
  const auto& specs = opt.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& s : specs) {
    if (!report.has(s.name)) continue;
    std::string line = "# " + s.name + " = " + json_number(report.get(s.name)) +
                       " " + s.unit;
    const std::vector<double> samples = report.samples(s.name);
    if (!samples.empty()) {
      const Quartiles q = quartiles(samples);
      line += " (median of " + std::to_string(samples.size()) + ", q1 " +
              json_number(q.q1) + ", q3 " + json_number(q.q3);
      if (samples.size() <= kListSamples) {
        line += ":";
        for (const double v : samples) line += " " + json_number(v);
      }
      line += ")";
    }
    std::printf("%s\n", line.c_str());
  }
  std::printf("# repetitions: %lld attempted, %lld failed\n", out.attempted,
              out.failed);
  try {
    const std::string line = report.result_line(
        specs, out.failed == 0, out.attempted, out.failed);
    std::printf("%s\n", line.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptlr-e2e: no result: %s\n", e.what());
    return 1;
  }
  return 0;
}
