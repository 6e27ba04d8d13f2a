#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>

#include "common/rng.hpp"
#include "core/solve.hpp"
#include "dense/blas.hpp"

namespace perfbench {

using namespace ptlr;

stars::CovarianceProblem make_problem(std::uint64_t seed) {
  return stars::make_st3d_matern(kN, 1.0, 0.1, 0.5, seed);
}

std::vector<std::vector<double>> observations(
    const stars::CovarianceProblem& p, std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<std::vector<double>> zs;
  for (int k = 0; k < kRhs; ++k) zs.push_back(p.synthetic_observations(rng));
  return zs;
}

std::vector<std::vector<double>> solve_all(
    const tlr::TlrMatrix& l, const std::vector<std::vector<double>>& zs,
    std::vector<double> x0) {
  std::vector<std::vector<double>> xs;
  xs.push_back(std::move(x0));
  for (std::size_t k = 1; k < zs.size(); ++k)
    xs.push_back(core::solve(l, zs[k]));
  return xs;
}

core::CholeskyConfig factor_config(double tol, int workers,
                                   bool record_trace) {
  core::CholeskyConfig cfg;
  cfg.acc = compress::Accuracy{tol, 1 << 30};
  cfg.band_size = 0;
  cfg.nthreads = workers;
  cfg.record_trace = record_trace;
  return cfg;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

double rel_residual(const stars::CovarianceProblem& p,
                    const std::vector<std::vector<double>>& xs,
                    const std::vector<std::vector<double>>& zs) {
  const int n = p.n();
  std::vector<std::vector<double>> rs = zs;
  dense::Matrix blk(kTile, kTile);
  for (int i0 = 0; i0 < n; i0 += kTile) {
    const int mi = std::min(kTile, n - i0);
    for (int j0 = 0; j0 <= i0; j0 += kTile) {
      const int mj = std::min(kTile, n - j0);
      dense::MatrixView v = blk.block(0, 0, mi, mj);
      p.fill_block(i0, j0, v);
      for (std::size_t k = 0; k < xs.size(); ++k) {
        dense::gemv(dense::Trans::N, -1.0, v, xs[k].data() + j0, 1.0,
                    rs[k].data() + i0);
        if (j0 != i0)
          dense::gemv(dense::Trans::T, -1.0, v, xs[k].data() + i0, 1.0,
                      rs[k].data() + j0);
      }
    }
  }
  double rn = 0.0, zn = 0.0;
  for (std::size_t k = 0; k < zs.size(); ++k)
    for (int i = 0; i < n; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      rn += rs[k][ii] * rs[k][ii];
      zn += zs[k][ii] * zs[k][ii];
    }
  return std::sqrt(rn / zn);
}

double tile_gen_seconds(const stars::CovarianceProblem& p) {
  const int n = p.n();
  dense::Matrix blk(kTile, kTile);
  double checksum = 0.0;
  const WallTimer timer;
  for (int i0 = 0; i0 < n; i0 += kTile)
    for (int j0 = 0; j0 <= i0; j0 += kTile) {
      dense::MatrixView v =
          blk.block(0, 0, std::min(kTile, n - i0), std::min(kTile, n - j0));
      p.fill_block(i0, j0, v);
      checksum += v(0, 0);
    }
  const double s = timer.seconds();
  if (!std::isfinite(checksum)) throw std::runtime_error("non-finite kernel");
  return s;
}

double dense_gemm_gflops() {
  dense::Matrix a(kTile, kTile), b(kTile, kTile), c(kTile, kTile);
  Rng rng(3);
  for (auto* m : {&a, &b, &c})
    for (int j = 0; j < kTile; ++j)
      for (int i = 0; i < kTile; ++i) (*m)(i, j) = rng.uniform(-1.0, 1.0);
  std::vector<double> secs;
  for (int rep = 0; rep < 15; ++rep) {
    const WallTimer timer;
    dense::gemm(dense::Trans::N, dense::Trans::T, -1.0, a.cview(), b.cview(),
                1.0, c.view());
    secs.push_back(timer.seconds());
  }
  return 2.0 * kTile * kTile * static_cast<double>(kTile) / median(secs) / 1e9;
}

tlr::TlrMatrix setup_compress(const stars::CovarianceProblem& p, double tol,
                              int& threads) {
  threads = static_cast<int>(
      std::clamp(sysconf(_SC_NPROCESSORS_ONLN), 1L, long{kSetupThreads}));
  return tlr::TlrMatrix::from_problem_parallel(
      p, kTile, compress::Accuracy{tol, 1 << 30}, threads, 1);
}

std::vector<bool> lowrank_flags(const tlr::TlrMatrix& a) {
  std::vector<bool> f;
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j <= i; ++j) f.push_back(a.at(i, j).is_lowrank());
  return f;
}

double useful_tile_frac(const std::vector<bool>& lowrank, int nt, int band) {
  long long compressed = 0, useful = 0;
  std::size_t t = 0;
  for (int i = 0; i < nt; ++i)
    for (int j = 0; j <= i; ++j, ++t) {
      if (!lowrank[t]) continue;
      ++compressed;
      if (i - j >= band) ++useful;
    }
  return compressed > 0 ? static_cast<double>(useful) / compressed : 0.0;
}

void zero_dist_metrics(Report& report) {
  for (const auto& s : per_layer_metrics())
    if (s.name.rfind("dist.", 0) == 0 || s.name.rfind("net.", 0) == 0 ||
        s.name.rfind("core.placement", 0) == 0)
      report.set(s.name, 0.0);
}

void zero_executor_metrics(Report& report) {
  for (const auto& s : per_layer_metrics())
    if (s.name.rfind("runtime.", 0) == 0 || s.name.rfind("hcore.", 0) == 0)
      report.set(s.name, 0.0);
}

}  // namespace perfbench
