// Machine-readable microbenchmark of the dense level-3 substrate.
//
// Sweeps GEMM (NN) / SYRK / TRSM / POTRF over square sizes and times both
// kernel paths — `naive` (the seed's unblocked reference loops, forced via
// KernelPath::kUnblocked) and `blocked` (the packed BLIS-style engine) —
// single-threaded, so the numbers track single-tile kernel efficiency, the
// quantity that gates TLR factorization throughput.
//
// A second sweep times the kernels under tile compression, which have one
// implementation each (variant `default`): `dot` by vector length,
// `geqp3_trunc` and `compress` on the (1,0) tile of st-3D-exp N=4096 at
// tol 1e-6 for b = 128 and 256, and `jacobi_svd` on a uniform random
// b-by-b/2 matrix. Their gflops divide the flops the kernels charge to
// flops::Counter (the work actually done) by the time.
//
// Output: BENCH_dense_kernels.json (override with PTLR_BENCH_OUT), one
// record per (kernel, variant, n) with seconds and gflops (plus the row
// count m where the operand is not square), and a summary of the
// blocked/naive speedup per kernel and size. PTLR_BENCH_SCALE=small caps
// the level-3 sweep at 512 for CI smoke runs; default sweeps 64..2048.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flops.hpp"
#include "common/timer.hpp"
#include "compress/compress.hpp"
#include "dense/blas.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"
#include "stars/problem.hpp"

using namespace ptlr::dense;

namespace {

struct Result {
  const char* kernel;
  const char* variant;
  int n;
  double seconds;
  double gflops;
  int m = 0;  ///< rows, where the operand is not n-by-n (0 otherwise)
};

// Best-of-reps wall time for one kernel invocation at size n.
template <typename Setup, typename Run>
double time_best(Setup setup, Run run, double flops) {
  // Repeat until ~0.2 s of accumulated runtime (at least twice) and keep
  // the fastest rep; big slow cases run exactly twice.
  double best = 1e300, total = 0.0;
  int reps = 0;
  while ((total < 0.2 || reps < 2) && reps < 50) {
    setup();
    ptlr::WallTimer t;
    run();
    const double s = t.seconds();
    best = std::min(best, s);
    total += s;
    ++reps;
    if (s > 5.0) break;  // one rep is plenty past this point
  }
  (void)flops;
  return best;
}

// Flops one call of `run` charges to flops::Counter.
template <typename Run>
double counted_flops(Run run) {
  ptlr::flops::Counter::reset();
  run();
  return static_cast<double>(ptlr::flops::Counter::total());
}

void print_row(const Result& r) {
  std::printf("%-11s %-8s %4d %6d %12.3e %10.2f\n", r.kernel, r.variant,
              r.m, r.n, r.seconds, r.gflops);
  std::fflush(stdout);
}

// The kernels under tile compression, one implementation each.
void compression_kernels(ptlr::Rng& rng, std::vector<Result>& results) {
  for (const int n : {64, 256, 4096}) {
    // One call is tens of nanoseconds: time a batch of them.
    const int calls = 1 << 22 >> (n >= 4096 ? 6 : n >= 256 ? 2 : 0);
    std::vector<double> x(n), y(n);
    for (int i = 0; i < n; ++i) {
      x[i] = rng.uniform(-1.0, 1.0);
      y[i] = rng.uniform(-1.0, 1.0);
    }
    volatile double sink = 0.0;
    const double secs = time_best([] {},
                                  [&] {
                                    double acc = 0.0;
                                    for (int c = 0; c < calls; ++c)
                                      acc += dot(n, x.data(), y.data());
                                    sink = acc;
                                  },
                                  0.0) /
                        calls;
    results.push_back({"dot", "default", n, secs, 2.0 * n / secs / 1e9});
    print_row(results.back());
  }

  const auto prob =
      ptlr::stars::make_problem(ptlr::stars::ProblemKind::kSt3DExp, 4096);
  const ptlr::compress::Accuracy acc{1e-6, 1 << 30};
  for (const int b : {128, 256}) {
    Matrix tile(b, b), work(b, b);
    prob.fill_block(b, 0, tile.view());
    const double qr_flops = counted_flops([&] {
      copy(tile.view(), work.view());
      (void)geqp3_trunc(work.view(), acc.tol * 0.5, b);
    });
    const double qr_secs = time_best(
        [&] { copy(tile.view(), work.view()); },
        [&] { (void)geqp3_trunc(work.view(), acc.tol * 0.5, b); }, 0.0);
    results.push_back({"geqp3_trunc", "default", b, qr_secs,
                       qr_flops / qr_secs / 1e9, b});
    print_row(results.back());

    Matrix tall(b, b / 2);
    fill_uniform(tall.view(), rng);
    const double svd_flops =
        counted_flops([&] { (void)jacobi_svd(tall.view()); });
    const double svd_secs =
        time_best([] {}, [&] { (void)jacobi_svd(tall.view()); }, 0.0);
    results.push_back({"jacobi_svd", "default", b / 2, svd_secs,
                       svd_flops / svd_secs / 1e9, b});
    print_row(results.back());

    const double c_flops = counted_flops(
        [&] { (void)ptlr::compress::compress(tile.view(), acc); });
    const double c_secs = time_best(
        [] {}, [&] { (void)ptlr::compress::compress(tile.view(), acc); },
        0.0);
    results.push_back({"compress", "default", b, c_secs,
                       c_flops / c_secs / 1e9, b});
    print_row(results.back());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_dense_kernels.json";
  if (const char* env = std::getenv("PTLR_BENCH_OUT")) out_path = env;
  if (argc > 1) out_path = argv[1];

  std::vector<int> sizes = {64, 128, 256, 512, 1024, 2048};
  const char* scale_env = std::getenv("PTLR_BENCH_SCALE");
  const std::string scale =
      scale_env != nullptr ? scale_env : std::string("default");
  if (scale == "small") sizes = {64, 128, 256, 512};

  ptlr::Rng rng(1234);
  std::vector<Result> results;

  std::printf("%-11s %-8s %4s %6s %12s %10s\n", "kernel", "variant", "m",
              "n", "seconds", "gflops");
  for (const int n : sizes) {
    // Shared operands per size; each timed rep restores its inputs.
    Matrix a(n, n), b(n, n), c(n, n);
    fill_uniform(a.view(), rng);
    fill_uniform(b.view(), rng);
    Matrix spd = random_spd(n, rng);
    Matrix tri = spd;  // well-conditioned lower-triangular factor for TRSM
    potrf(Uplo::Lower, tri.view());
    Matrix work(n, n);

    for (const KernelPath path : {KernelPath::kUnblocked, KernelPath::kAuto}) {
      set_kernel_path(path);
      const char* variant = path == KernelPath::kUnblocked ? "naive" : "blocked";

      struct Case {
        const char* kernel;
        double flops;
      };
      const double dn = n;
      const Case cases[] = {
          {"gemm", 2.0 * dn * dn * dn},
          {"syrk", dn * dn * dn},
          {"trsm", dn * dn * dn},
          {"potrf", dn * dn * dn / 3.0},
      };
      for (const Case& kc : cases) {
        double secs = 0.0;
        const std::string name = kc.kernel;
        if (name == "gemm") {
          secs = time_best([] {},
                           [&] {
                             gemm(Trans::N, Trans::N, 1.0, a.view(), b.view(),
                                  0.0, c.view());
                           },
                           kc.flops);
        } else if (name == "syrk") {
          secs = time_best([] {},
                           [&] {
                             syrk(Uplo::Lower, Trans::N, -1.0, a.view(), 0.0,
                                  c.view());
                           },
                           kc.flops);
        } else if (name == "trsm") {
          secs = time_best([&] { copy(b.view(), work.view()); },
                           [&] {
                             trsm(Side::Left, Uplo::Lower, Trans::N,
                                  Diag::NonUnit, 1.0, tri.view(), work.view());
                           },
                           kc.flops);
        } else {  // potrf
          secs = time_best([&] { copy(spd.view(), work.view()); },
                           [&] { potrf(Uplo::Lower, work.view()); }, kc.flops);
        }
        const double gflops = kc.flops / secs / 1e9;
        results.push_back({kc.kernel, variant, n, secs, gflops});
        print_row(results.back());
      }
    }
  }
  set_kernel_path(KernelPath::kAuto);
  compression_kernels(rng, results);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"dense_kernels\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", scale.c_str());
  std::fprintf(f, "  \"threads\": 1,\n  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f, "    {\"kernel\": \"%s\", \"variant\": \"%s\", ",
                 r.kernel, r.variant);
    if (r.m > 0) std::fprintf(f, "\"m\": %d, ", r.m);
    std::fprintf(f,
                 "\"n\": %d, \"seconds\": %.6e, \"gflops\": %.4f}%s\n",
                 r.n, r.seconds, r.gflops, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"speedup\": [\n");
  bool first = true;
  for (const Result& r : results) {
    if (std::string(r.variant) != "blocked") continue;
    for (const Result& base : results) {
      if (std::string(base.variant) == "naive" &&
          std::string(base.kernel) == r.kernel && base.n == r.n) {
        std::fprintf(f,
                     "%s    {\"kernel\": \"%s\", \"n\": %d, \"x\": %.2f}",
                     first ? "" : ",\n", r.kernel, r.n,
                     r.gflops / base.gflops);
        first = false;
      }
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
