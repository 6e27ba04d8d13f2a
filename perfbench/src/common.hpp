// Shared pieces of the end-to-end benchmark: the fixed problem shape, the
// options every workload receives, clocks, and the checks a repetition's
// output must pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/cholesky.hpp"
#include "metrics.hpp"
#include "stars/problem.hpp"
#include "tlr/io.hpp"
#include "tlr/tlr_matrix.hpp"

namespace perfbench {

// st-3D-exp with theta = (1, 0.1, 0.5), the paper's Section IV problem.
// N=4096/b=256 gives NT=16, where the tuner picks band 8 at tol 1e-6 and
// compression is most of the user-visible time (see README.md).
inline constexpr int kN = 4096;
inline constexpr int kTile = 256;
inline constexpr double kTolLoose = 1e-6;
inline constexpr double kTolTight = 1e-8;
// Two workers: on a 4-core host four workers spread about twice as much
// run to run, and the load generator needs a core of its own.
inline constexpr int kWorkers = 2;
// Four ranks: broadcast trees forward nothing below three.
inline constexpr int kRanks = 4;
// Set-ups per run, and the least time they take together; setup_s is
// their median. Cheap set-ups repeat until the time is spent, so their
// median is as steady as that of an expensive one.
inline constexpr int kSetups = 3;
inline constexpr double kSetupMinSeconds = 0.5;
// Threads of the set-up builds (factor_tight, dist_socket). Built with
// from_problem_parallel, which yields the sequential from_problem's matrix.
inline constexpr int kSetupThreads = 4;
// A solve passes when rel_residual <= kResidualCeiling * tol.
inline constexpr double kResidualCeiling = 10.0;
// Right-hand sides rel_residual is taken over. One draw moves the residual
// by about 5%; eight keep it within about 2% for a given geometry.
inline constexpr int kRhs = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for the rank processes' sockets.
  std::string scratch = ".bench_build/scratch";
};

/// What one run attempted and which repetitions failed, and why.
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    ++failed;
    errors.push_back(why);
  }
};

/// The workload's problem for `seed`: same seed, same geometry.
ptlr::stars::CovarianceProblem make_problem(std::uint64_t seed);

/// kRhs observation vectors drawn from `seed`. A repetition's timed solve
/// uses the first; verification solves all of them, so rel_residual
/// averages over right-hand sides instead of following one draw.
std::vector<std::vector<double>> observations(
    const ptlr::stars::CovarianceProblem& p, std::uint64_t seed);

/// Solutions of every observation vector through the factor `l`; x0 (the
/// timed solve of zs[0]) is reused.
std::vector<std::vector<double>> solve_all(
    const ptlr::tlr::TlrMatrix& l, const std::vector<std::vector<double>>& zs,
    std::vector<double> x0);

/// Factorization settings of the shared-memory workloads: auto-tuned band,
/// default engines, everything else at its library default.
ptlr::core::CholeskyConfig factor_config(double tol, int workers,
                                         bool record_trace);

/// Process CPU seconds (all threads).
double cpu_seconds();

/// Peak resident set of this process so far, in MB (1e6 bytes).
double peak_rss_mb();

/// ||Z - Sigma X||_F / ||Z||_F over the columns xs/zs, with Sigma
/// generated tile by tile from the kernel (the lower triangle once,
/// applied with its transpose).
double rel_residual(const ptlr::stars::CovarianceProblem& p,
                    const std::vector<std::vector<double>>& xs,
                    const std::vector<std::vector<double>>& zs);

/// FNV-1a over the serialized bytes of the lower-triangle tiles for which
/// `keep(i, j)` holds, in row-major order. Equal hashes <=> bitwise equal
/// tiles (up to hash collisions).
template <class Keep>
std::uint64_t tiles_hash(const ptlr::tlr::TlrMatrix& a, Keep keep) {
  std::uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      if (!keep(i, j)) continue;
      for (const char c : ptlr::tlr::tile_to_bytes(a.at(i, j))) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
    }
  return h;
}

inline std::uint64_t tiles_hash(const ptlr::tlr::TlrMatrix& a) {
  return tiles_hash(a, [](int, int) { return true; });
}

/// Seconds of generating every lower-triangle tile with fill_block, the
/// kernel evaluation alone.
double tile_gen_seconds(const ptlr::stars::CovarianceProblem& p);

/// Gflop/s of one kTile x kTile x kTile dense GEMM on this thread (median
/// of several calls).
double dense_gemm_gflops();

/// Low-rank flags of the lower-triangle tiles, in row-major packed order.
std::vector<bool> lowrank_flags(const ptlr::tlr::TlrMatrix& a);

/// Tiles low-rank in `lowrank` (taken before tuning) that stay low-rank
/// under `band`, over tiles low-rank in `lowrank`.
double useful_tile_frac(const std::vector<bool>& lowrank, int nt, int band);

/// The band-1 compressed matrix of a set-up, built on
/// min(kSetupThreads, nproc) threads; sets `threads` to that count.
ptlr::tlr::TlrMatrix setup_compress(const ptlr::stars::CovarianceProblem& p,
                                    double tol, int& threads);

/// Runs `rep` back to back until `seconds` have passed, at least once.
template <class Rep>
void repeat_for(double seconds, Rep&& rep) {
  const ptlr::WallTimer timer;
  do {
    rep();
  } while (timer.seconds() < seconds);
}

// ------------------------------------------------------------ workloads

Outcome run_pipeline(const Options& opt, Report& report);
Outcome run_factor_tight(const Options& opt, Report& report);
Outcome run_dist_socket(const Options& opt, Report& report);

/// Zero every dist.* / net.* / placement metric (shared-memory workloads).
void zero_dist_metrics(Report& report);

/// Zero every runtime.* / hcore.* metric (workloads without an executor
/// run in the timed span).
void zero_executor_metrics(Report& report);

}  // namespace perfbench
