// The two shared-memory workloads. They share one repetition loop and
// differ only in where initial compression happens:
//   pipeline     — inside the timed span: make_problem -> from_problem
//                  (band 1) -> core::factorize -> core::solve;
//   factor_tight — in set-up (tol 1e-8); a repetition factorizes a fresh
//                  copy of the band-1 matrix and solves.
#include <optional>

#include "common.hpp"
#include "core/solve.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

using namespace ptlr;

/// Per-layer numbers of one repetition (timings from the benchmark's own
/// calls, the rest from what the library returns).
struct RepLayers {
  double from_problem_s = 0.0;
  double tune_s = 0.0;
  double densify_s = 0.0;
  double graph_s = 0.0;
  double exec_s = 0.0;
  int band = 0;
  rt::SchedStats sched;
  double footprint_mb = 0.0;
};

/// Executor-level numbers only a traced repetition yields.
struct TracedLayers {
  std::map<std::string, ClassTime> classes;
  std::map<std::string, double> class_flops;
  Occupancy occ;
  long long tasks = 0;
  obs::CompressionCounters comp;
  double useful_tile_frac = 0.0;
};

struct Samples {
  std::vector<double> wall, cpu, residual, traced_wall;
  std::vector<RepLayers> layers;  // untraced repetitions
  std::optional<TracedLayers> traced;
  long long recovery_events = 0;  // every repetition, traced or not
};

double median_of(const std::vector<RepLayers>& reps,
                 double RepLayers::*field) {
  std::vector<double> v;
  for (const auto& r : reps) v.push_back(r.*field);
  return median(v);
}

Outcome run_shared(const Options& opt, Report& report, double tol,
                   bool compress_in_rep) {
  const compress::Accuracy acc{tol, 1 << 30};

  // Set-up: the problem, and for factor_tight the band-1 compressed matrix.
  std::vector<double> setup_s, setup_compress_s;
  std::optional<stars::CovarianceProblem> prob;
  std::optional<tlr::TlrMatrix> pristine;
  int build_threads = 1;  // of the band-1 build tlr.from_problem_s times
  const WallTimer setup_clock;
  for (int k = 0; k < kSetups || setup_clock.seconds() < kSetupMinSeconds;
       ++k) {
    pristine.reset();
    const WallTimer timer;
    prob.emplace(make_problem(opt.seed));
    if (!compress_in_rep) {
      const WallTimer tc;
      pristine.emplace(setup_compress(*prob, tol, build_threads));
      setup_compress_s.push_back(tc.seconds());
    }
    setup_s.push_back(timer.seconds());
  }
  const std::vector<std::vector<double>> zs = observations(*prob, opt.seed);

  Outcome out;
  Samples s;
  std::optional<std::uint64_t> first_hash;
  auto rep = [&](bool traced) {
    ++out.attempted;
    try {
      std::optional<tlr::TlrMatrix> a;
      if (!compress_in_rep) a.emplace(*pristine);
      std::optional<stars::CovarianceProblem> own;
      const stars::CovarianceProblem* p = &*prob;
      RepLayers layers;
      std::vector<bool> before;

      const double cpu0 = cpu_seconds();
      const WallTimer timer;
      if (compress_in_rep) {
        own.emplace(make_problem(opt.seed));
        p = &*own;
        const WallTimer tc;
        a.emplace(tlr::TlrMatrix::from_problem(*p, kTile, acc, 1));
        layers.from_problem_s = tc.seconds();
      }
      if (traced) {
        before = lowrank_flags(*a);
        obs::reset();
        obs::enable(true);
      }
      const WallTimer tf;
      const core::CholeskyResult res =
          core::factorize(*a, p, factor_config(tol, kWorkers, traced));
      const double factorize_s = tf.seconds();
      obs::enable(false);
      std::vector<double> x = core::solve(*a, zs.front());
      const double wall = timer.seconds();
      const double cpu = cpu_seconds() - cpu0;

      layers.tune_s = res.tune_seconds;
      layers.densify_s = res.regen_seconds;
      layers.exec_s = res.exec.seconds;
      layers.graph_s =
          factorize_s - res.tune_seconds - res.regen_seconds - res.exec.seconds;
      layers.band = res.band_size;
      layers.sched = res.exec.sched;
      s.recovery_events += res.recovery.total();
      layers.footprint_mb =
          static_cast<double>(a->footprint_elements()) * 8.0 / 1e6;

      if (traced) {
        TracedLayers t;
        t.classes = class_split(res.exec.trace);
        for (int k = 0; k < static_cast<int>(class_labels().size()); ++k)
          t.class_flops[class_label(k)] = obs::Counters::row(k).flops;
        t.occ = occupancy(res.exec.trace, res.exec.seconds, kWorkers);
        t.tasks = static_cast<long long>(res.exec.trace.size());
        t.comp = obs::Counters::compressions();
        t.useful_tile_frac = useful_tile_frac(before, a->nt(), res.band_size);
        s.traced = t;
        s.traced_wall.push_back(wall);
      } else {
        s.wall.push_back(wall);
        s.cpu.push_back(cpu);
      }

      // Verification: accuracy against the kernel operator, and the factor
      // bitwise equal to the first repetition's (the schedule must not
      // change the numbers).
      const double resid =
          rel_residual(*p, solve_all(*a, zs, std::move(x)), zs);
      s.residual.push_back(resid);
      const std::uint64_t h = tiles_hash(*a);
      if (!first_hash) first_hash = h;
      if (!(resid <= kResidualCeiling * tol)) {
        out.fail("rel_residual " + json_number(resid) + " above " +
                 json_number(kResidualCeiling * tol));
      } else if (h != *first_hash) {
        out.fail("factor differs bitwise from the first repetition");
      } else if (!traced) {
        s.layers.push_back(layers);
      }
    } catch (const std::exception& e) {
      out.fail(std::string("repetition threw: ") + e.what());
    }
  };
  repeat_for(opt.seconds, [&] {
    rep(false);
    if (opt.trace) rep(true);
  });
  if (s.wall.empty()) return out;  // every repetition threw

  report.set_median("time_to_solution_s", s.wall);
  report.set_median("cpu_s", s.cpu);
  report.set_median("setup_s", setup_s);
  report.set("peak_rss_mb", peak_rss_mb());
  report.set_median("rel_residual", s.residual);
  report.set("verified_frac", 1.0 - failed_frac(out.failed, out.attempted));
  if (!opt.trace || s.layers.empty() || !s.traced) return out;

  // ------------------------------------------------------- traced run only
  const RepLayers& last = s.layers.back();
  const TracedLayers& t = *s.traced;
  const double tile_gen = tile_gen_seconds(*prob);
  const double from_problem =
      compress_in_rep ? median_of(s.layers, &RepLayers::from_problem_s)
                      : median(setup_compress_s);
  report.set("stars.tile_gen_s", tile_gen);
  report.set("tlr.from_problem_s", from_problem);
  report.set("compress.initial_s", from_problem - tile_gen / build_threads);
  report.set("compress.useful_tile_frac", t.useful_tile_frac);
  report.set("core.tune_s", median_of(s.layers, &RepLayers::tune_s));
  report.set("tlr.densify_s", median_of(s.layers, &RepLayers::densify_s));
  report.set("core.graph_s", median_of(s.layers, &RepLayers::graph_s));
  report.set("core.band_size", last.band);
  const double exec_s = median_of(s.layers, &RepLayers::exec_s);
  report.set("runtime.exec_s", exec_s);
  report.set("runtime.tasks", static_cast<double>(t.tasks));
  report.set("runtime.busy_frac", t.occ.busy_frac);
  report.set("runtime.idle_s", t.occ.idle_s);
  report.set("runtime.steals", static_cast<double>(last.sched.steals));
  report.set("runtime.parks", static_cast<double>(last.sched.parks));
  report.set("runtime.inline_runs",
             static_cast<double>(last.sched.inline_runs));
  report.set("runtime.nested_spawned",
             static_cast<double>(last.sched.nested_spawned));

  // Serial baseline: the same factorization once at one worker.
  {
    tlr::TlrMatrix a = compress_in_rep
                           ? tlr::TlrMatrix::from_problem(*prob, kTile, acc, 1)
                           : *pristine;
    const core::CholeskyResult one =
        core::factorize(a, &*prob, factor_config(tol, 1, false));
    report.set("runtime.speedup_vs_1w", one.exec.seconds / exec_s);
  }

  for (const auto& [label, ct] : t.classes) {
    report.set("hcore." + label + ".s", ct.seconds);
    if (label == "other") continue;
    report.set("hcore." + label + ".count", static_cast<double>(ct.count));
    report.set("hcore." + label + ".gflops",
               ct.seconds > 0.0 ? t.class_flops.at(label) / ct.seconds / 1e9
                                : 0.0);
  }
  report.set("dense.gemm_peak_gflops", dense_gemm_gflops());
  report.set("compress.recompressions", static_cast<double>(t.comp.count));
  report.set("compress.rank_out_mean",
             t.comp.count > 0 ? static_cast<double>(t.comp.rank_out_sum) /
                                    static_cast<double>(t.comp.count)
                              : 0.0);
  report.set("compress.fallbacks", static_cast<double>(t.comp.fallbacks));
  report.set("tlr.footprint_mb", last.footprint_mb);
  report.set("resilience.events", static_cast<double>(s.recovery_events));
  report.set("obs.trace_overhead_frac",
             median(s.traced_wall) / median(s.wall) - 1.0);
  zero_dist_metrics(report);
  return out;
}

}  // namespace

Outcome run_pipeline(const Options& opt, Report& report) {
  return run_shared(opt, report, kTolLoose, /*compress_in_rep=*/true);
}

Outcome run_factor_tight(const Options& opt, Report& report) {
  return run_shared(opt, report, kTolTight, /*compress_in_rep=*/false);
}

}  // namespace perfbench
