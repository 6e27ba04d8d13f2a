// ε-truncated low-rank compression and recompression.
//
// compress(): dense tile → U·Vᵀ at an accuracy threshold, the STARS-H
// compression step of Section III-B. Implemented as truncated column-
// pivoted QR to tol/2 (cheap rank discovery) followed by an SVD polish of
// the small triangular factor at the remaining budget, so the returned
// rank is the minimal rank meeting the threshold in the Frobenius norm
// (up to one column).
//
// recompress(): rounds a (possibly rank-inflated) U·Vᵀ back to minimal rank
// via QRs of both factors and the same truncation on the small core — the
// "recompression" stage that dominates TLR GEMM at high rank (Section IV,
// Fig. 2a) and that splits the LR GEMM kernels into two stages for dynamic
// memory designation (Section VII-B).
#pragma once

#include <cstdint>
#include <optional>

#include "compress/lowrank.hpp"

namespace ptlr::compress {

/// Compression backend selector (implementations in compress/methods.hpp
/// and compress/adaptive.hpp; the enum lives here so the hot-path policy
/// below can name a backend without a circular include).
enum class Method { kCpqrSvd, kRsvd, kAca, kAdaptiveRsvd };

/// Hot-path compression engine selection: which backend the LR GEMM
/// recompression (and drivers that honour it) runs, plus the per-tile-class
/// gates deciding when the adaptive randomized engine is worth its
/// stochastic machinery. Parsed from PTLR_COMPRESS (docs/compression.md):
///
///   PTLR_COMPRESS=adaptive
///   PTLR_COMPRESS=method=adaptive,seed=7,min_dim=96,min_rank=24,block=8
///
/// Methods: cpqr (deterministic QR+QR+SVD, the default), adaptive
/// (randomized range sampling with CPQR+SVD fallback), rsvd, aca (initial
/// compression only; recompression falls back to cpqr for both). A typo
/// throws — a misspelt engine must not silently run the default.
struct CompressPolicy {
  Method method = Method::kCpqrSvd;
  /// Base seed of the randomized engines. Hot-path call sites derive a
  /// per-tile seed from it via site_seed() so results are schedule- and
  /// thread-count-invariant (same contract as the fault injector).
  std::uint64_t seed = 0x51AB5EEDull;
  /// Tile-class gates: tiles with min(rows, cols) < min_dim or a
  /// concatenated rank < min_rank skip the adaptive engine (the sketch
  /// bookkeeping costs more than it saves on small operands).
  int min_dim = 64;
  int min_rank = 12;
  /// Sketch growth block of the adaptive engine (columns per round).
  int block = 16;

  static CompressPolicy parse(const char* spec);
  /// PTLR_COMPRESS, or the defaults when unset.
  static CompressPolicy from_env();
};

/// Schedule-invariant per-site seed: a pure splitmix64 hash of
/// (base, site, salt), the same construction resilience/fault.cpp uses so
/// randomized compression at tile (i, j) in panel k draws the identical
/// sketch no matter which worker runs it or in what order.
std::uint64_t site_seed(std::uint64_t base, std::uint64_t site,
                        std::uint64_t salt);

/// Accuracy policy for compression/recompression.
struct Accuracy {
  /// Frobenius-norm truncation threshold (absolute, as in the paper's
  /// fixed accuracy thresholds 1e-8 … 1e-3).
  double tol = 1e-8;
  /// Cap on the admissible rank; compression fails above it. The paper sets
  /// maxrank = b/2 to keep TLR competitive with dense (Section III-B).
  int maxrank = 1 << 30;
  /// Adaptive on-demand densification (the paper's Section IX future
  /// work): when > 0, a low-rank tile whose rank grows beyond
  /// densify_ratio · min(rows, cols) during the factorization is rolled
  /// back to dense on the spot. 0 disables the policy.
  double densify_ratio = 0.0;
  /// Engine the hot-path recompression runs (default: deterministic
  /// CPQR+SVD). Rides inside Accuracy so every existing recompression call
  /// site inherits the selector without a signature change.
  CompressPolicy policy{};
};

/// Compress a dense block to U·Vᵀ with ‖A − U·Vᵀ‖_F ≤ tol.
/// Returns std::nullopt if that would need more than `maxrank` columns —
/// the caller then keeps the tile dense (BAND-DENSE-TLR densification).
std::optional<LowRankFactor> compress(dense::ConstMatrixView a,
                                      const Accuracy& acc);

/// Exact numerical rank of a block at threshold `acc` (no factor built).
int numerical_rank(dense::ConstMatrixView a, const Accuracy& acc);

/// Round an existing factor down to minimal rank at `acc` (acc.maxrank is
/// not applied). Returns the new rank; without a reduction the factor is
/// left untouched. Cost: O(b·k²) QRs, then an O(k³) pivoted QR of the core
/// and a Jacobi SVD on only its surviving columns.
int recompress(LowRankFactor& f, const Accuracy& acc);

/// ‖A − U·Vᵀ‖_F, for accuracy validation in tests.
double approximation_error(dense::ConstMatrixView a, const LowRankFactor& f);

/// Smallest k such that dropping singular values s[k:] keeps the Frobenius
/// tail at or below `tol` (s must be descending) — the paper's
/// accuracy-threshold truncation rule, shared by all backends.
int truncation_rank(const std::vector<double>& s, double tol);

}  // namespace ptlr::compress
