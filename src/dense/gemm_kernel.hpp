// Internal interface of the blocked, packed GEMM engine.
//
// The engine follows the BLIS/GotoBLAS decomposition: a five-loop nest over
// (NC, KC, MC) cache blocks with contiguous packing of the A- and B-panels,
// and an MR x NR register microkernel at the bottom. Packing absorbs all
// four Trans cases, so transposed operands never pay a strided inner loop.
// See docs/performance.md for the parameter derivation and tuning notes.
//
// Everything here computes the *accumulation* form
//     C += alpha * op(A) * op(B)
// (no beta, no dimension checks, no flop accounting) — the public BLAS
// entry points in blas.cpp own validation, beta-scaling and the flop
// counter, and both SYRK/TRSM delegate their O(n^3) volume here without
// double-charging flops.
#pragma once

#include "dense/blas.hpp"
#include "dense/matrix.hpp"

namespace ptlr::dense::detail {

// The MR x NR register tile is not declared here: it follows the ISA the
// engine sources are compiled for (gemm_kernel.cpp picks it, and passes it
// to the packing routines as a template argument), so no other translation
// unit can disagree with it. Results do not depend on it — see
// gemm_blocked_tile below.

// Cache blocks: a KC x NR sliver of packed B stays in L1 while the
// micro-panels of A stream past it (256*12*8B = 24 KiB of 48 KiB); the
// MC x KC packed A block stays in L2 (256*256*8B = 512 KiB of 2 MiB); the
// KC x NC packed B block streams from L3. kKC fixes the k-partition, and
// with it the rounding of every blocked result; kMC does not.
inline constexpr int kMC = 256;
inline constexpr int kKC = 256;
inline constexpr int kNC = 2048;

// Outer block size used by the blocked SYRK/TRSM/POTRF wrappers: diagonal
// (triangular) blocks of this size run the unblocked reference kernels,
// everything else is GEMM volume.
inline constexpr int kOuterNB = 64;

// Nested child-task decomposition thresholds (docs/performance.md). The
// level-3 entry points cut their output into per-child chunks and spawn
// them through rt::TaskGroup when running inside a ws-engine task. Every
// chunk keeps at least kNestedMinChunk rows/columns so each child's
// blocked-vs-unblocked dispatch (worth_blocking, blocked_l3) takes the
// same branch the undivided call would — that branch-stability is what
// keeps chunked results bitwise identical to the serial evaluation; see
// the proofs next to each use. kNestedMinVolume (64^3 fused multiply-adds,
// tens of microseconds of work) keeps spawn overhead invisible, and
// kNestedMaxChunks bounds fragmentation: with 2 cores, 8 chunks already
// caps the tail imbalance at 1/8 of the call.
inline constexpr int kNestedMinChunk = 64;
inline constexpr double kNestedMinVolume = 64.0 * 64.0 * 64.0;
inline constexpr int kNestedMaxChunks = 8;

/// Restrict a blocked update to one triangle of C (diagonal included).
/// Microtiles fully outside the triangle are skipped before they compute;
/// straddling microtiles mask the write-back elementwise. This is how SYRK
/// rides the GEMM engine at full speed with a single packing pass.
enum class TriMask { kNone, kLower, kUpper };

/// Blocked, packed path with an explicit MR x NR register tile:
/// C += alpha * op(A) * op(B). Any m/n/k, any ld. Each element of C is one
/// multiply-add sum over each KC block of the k-partition, added to C once
/// per block, whatever the tile shape: the shape only redraws blocking
/// boundaries, so every instantiation returns bitwise-identical results.
///
/// `bpacked`, when non-null, is op(B) already packed by pack_b<NR> as one
/// (KC, NC) block (k <= kKC, n <= kNC) and replaces the B packing pass:
/// the parent of a nested GEMM packs B once and its row-chunk children
/// share it. Instantiated for 8 x 6 (MR = one 8-wide vector) and 16 x 12
/// (two 8-wide vectors per column, 24 accumulators for the 32 AVX-512
/// registers).
template <int MR, int NR>
void gemm_blocked_tile(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                       ConstMatrixView b, MatrixView c, TriMask mask,
                       const double* bpacked = nullptr);
extern template void gemm_blocked_tile<8, 6>(Trans, Trans, double,
                                             ConstMatrixView, ConstMatrixView,
                                             MatrixView, TriMask,
                                             const double*);
extern template void gemm_blocked_tile<16, 12>(Trans, Trans, double,
                                               ConstMatrixView,
                                               ConstMatrixView, MatrixView,
                                               TriMask, const double*);

/// gemm_blocked_tile at the register tile of the build's ISA: 16 x 12
/// under AVX-512, 8 x 6 otherwise.
void gemm_blocked(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                  ConstMatrixView b, MatrixView c,
                  TriMask mask = TriMask::kNone);

/// Unblocked reference path with identical contract (the seed gaxpy/dot
/// loops, minus the BLAS-violating zero shortcuts). Kept as the oracle and
/// as the small-size / PTLR_DENSE_UNBLOCKED fallback.
void gemm_unblocked(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                    ConstMatrixView b, MatrixView c);

/// Dispatch helper used by gemm/syrk/trsm bodies: picks blocked vs
/// unblocked from the configured kernel path and the problem volume.
void gemm_body(Trans ta, Trans tb, double alpha, ConstMatrixView a,
               ConstMatrixView b, MatrixView c);

/// Pack an mc x kc block of op(A) (alpha folded in) starting at row i0 /
/// depth p0 into MR-row micro-panels, zero-padded to a multiple of MR.
/// Layout: panel q (rows [q*MR, q*MR+MR)) occupies buf[q*kc*MR ...],
/// within a panel element (i, p) sits at p*MR + i. Instantiated for
/// MR = 8 and 16.
template <int MR>
void pack_a(Trans ta, double alpha, ConstMatrixView a, int i0, int p0,
            int mc, int kc, double* buf);

/// Pack a kc x nc block of op(B) starting at depth p0 / column j0 into
/// NR-column micro-panels, zero-padded to a multiple of NR.
/// Layout: panel q (cols [q*NR, q*NR+NR)) occupies buf[q*kc*NR ...],
/// within a panel element (p, j) sits at p*NR + j. Instantiated for
/// NR = 6 and 12.
template <int NR>
void pack_b(Trans tb, ConstMatrixView b, int p0, int j0, int kc, int nc,
            double* buf);

/// True when (m, n, k) is worth the packing overhead under kAuto.
bool worth_blocking(int m, int n, int k);

}  // namespace ptlr::dense::detail
