// Quickstart: compress a 3D exponential covariance matrix, factorize it
// with the auto-tuned BAND-DENSE-TLR Cholesky, and solve a linear system.
//
//   $ ./quickstart [n] [tile_size]
//
// Observability: set PTLR_TRACE=1 to record a structured trace of the
// factorization; a Chrome trace_event JSON is written to PTLR_TRACE_FILE
// (default ptlr_trace.json) alongside per-kernel counters, the rank
// histogram and the memory report.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/timer.hpp"
#include "core/cholesky.hpp"
#include "core/solve.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

int main(int argc, char** argv) {
  using namespace ptlr;
  const int n = argc > 1 ? std::atoi(argv[1]) : 2048;
  const int b = argc > 2 ? std::atoi(argv[2]) : 128;
  const double eps = 1e-6;

  std::printf("PTLR quickstart: st-3D-exp covariance, N = %d, b = %d, "
              "accuracy %.0e\n", n, b, eps);

  // Observability opt-in (PTLR_TRACE=1): zero overhead when off.
  obs::enable_from_env();
  const bool traced = obs::enabled();

  // 1. The covariance matrix problem: Matérn theta = (1, 0.1, 0.5) on a
  //    Morton-ordered 3D point cloud (the paper's st-3D-exp).
  auto problem = stars::make_problem(stars::ProblemKind::kSt3DExp, n);

  // 2. Compress into tile low-rank format. Tiles are generated lazily, so
  //    the dense operator is never materialized.
  const compress::Accuracy acc{eps, 1 << 30};
  const WallTimer compress_timer;
  auto sigma = tlr::TlrMatrix::from_problem(problem, b, acc, /*band=*/1);
  const double compress_seconds = compress_timer.seconds();
  const auto ranks = sigma.rank_stats();
  std::printf("compressed: NT = %d tiles/dim, off-diagonal ranks "
              "min/avg/max = %d/%.1f/%d\n",
              sigma.nt(), ranks.min, ranks.avg, ranks.max);
  std::printf("memory: %.1f MB exact-rank vs %.1f MB dense\n",
              static_cast<double>(sigma.footprint_elements()) * 8 / 1e6,
              static_cast<double>(n) * n * 8 / 1e6);

  // 3. Factorize. band_size = 0 runs the Algorithm 1 auto-tuner, which
  //    densifies the high-rank sub-diagonals before the factorization.
  core::CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = 0;
  cfg.nthreads = 2;
  cfg.record_trace = traced;
  auto result = core::factorize(sigma, &problem, cfg);
  std::printf("compressed in %.3f s, factorized in %.3f s (auto-tuned "
              "BAND_SIZE = %d, %.2f Gflop model)\n",
              compress_seconds, result.factor_seconds, result.band_size,
              result.model_flops / 1e9);
  // Resilience accounting (PTLR_FAULTS / PTLR_WATCHDOG_MS, see
  // docs/robustness.md): report whatever the recovery machinery did.
  if (result.recovery.total() > 0) {
    std::printf("recovery: %s\n", result.recovery.to_string().c_str());
  }
  if (result.restarts > 0) {
    std::printf("shift-and-restart: %d restart(s), final shift %.3e\n",
                result.restarts, result.shift);
  }

  if (traced) {
    const std::string path = obs::write_chrome_trace_from_env();
    std::printf("\n%s", obs::counters_ascii().c_str());
    std::printf("\n%s", obs::to_ascii(obs::rank_histogram(sigma)).c_str());
    std::printf("\n%s",
                obs::to_ascii(obs::memory_report(sigma, b / 2)).c_str());
    std::printf("\n%s", obs::to_ascii(result.critical_path).c_str());
    std::printf("\ntrace written to %s (open in chrome://tracing)\n",
                path.c_str());
    // Machine-readable artifacts next to the trace for tooling/CI.
    const std::string stem =
        path.size() > 5 && path.rfind(".json") == path.size() - 5
            ? path.substr(0, path.size() - 5)
            : path;
    obs::write_text_file(stem + "_counters.json", obs::counters_json());
    obs::write_text_file(stem + "_ranks.json",
                         obs::to_json(obs::rank_histogram(sigma)));
    obs::write_text_file(stem + "_memory.json",
                         obs::to_json(obs::memory_report(sigma, b / 2)));
  }

  // 4. Solve Sigma x = z and check the residual.
  Rng rng(0);
  auto z = problem.synthetic_observations(rng);
  auto x = core::solve(sigma, z);
  // Residual r = z - Sigma x, evaluated tile-free via the kernel.
  double rnorm = 0.0, znorm = 0.0;
  for (int i = 0; i < n; ++i) {
    double ri = z[static_cast<std::size_t>(i)];
    for (int j = 0; j < n; ++j)
      ri -= problem.entry(i, j) * x[static_cast<std::size_t>(j)];
    rnorm += ri * ri;
    znorm += z[static_cast<std::size_t>(i)] * z[static_cast<std::size_t>(i)];
  }
  std::printf("solve residual ||z - Sigma x|| / ||z|| = %.2e\n",
              std::sqrt(rnorm / znorm));
  std::printf("log det(Sigma) = %.4f\n", core::log_det(sigma));
  return 0;
}
