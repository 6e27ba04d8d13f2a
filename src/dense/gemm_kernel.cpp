// Blocked, packed GEMM engine: macro-kernel loop nest and register
// microkernel (layout and parameter rationale in gemm_kernel.hpp and
// docs/performance.md).
#include "dense/gemm_kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "runtime/nested.hpp"

namespace ptlr::dense::detail {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define PTLR_RESTRICT __restrict__
#else
#define PTLR_RESTRICT
#endif

// The register tile of this build. Under AVX-512 (32 zmm registers) the
// 16 x 12 tile keeps 24 accumulators plus two A vectors and a broadcast
// resident; 8 x 6 fills the 16 ymm registers of AVX2 (and is the portable
// default). The shape is private to this file: the packing routines and
// the shared-B buffer below receive it as a template argument.
#ifdef __AVX512F__
constexpr int kMR = 16;
constexpr int kNR = 12;
#else
constexpr int kMR = 8;
constexpr int kNR = 6;
#endif

constexpr int round_up(int x, int r) { return (x + r - 1) / r * r; }

// MR x NR register microkernel: acc = sum_p apanel(:, p) * bpanel(p, :)
// over the packed panels, then C(0:mr, 0:nr) += acc. Panels are
// zero-padded, so the hot loop is always full-width; mr/nr only mask the
// write-back.
//
// The accumulators are spelled with GNU vector extensions as arrays of
// 8-wide vectors: MR / 8 vectors per microtile column, each updated with a
// broadcast multiply-add per packed B element. This pins the vectorization
// axis to the M dimension (NR * MR / 8 accumulator vectors + the A vectors
// stay resident in the register file); left to its own devices GCC
// vectorizes the scalar form across the N axis and drowns the FMAs in
// cross-lane shuffles, and a single 16-wide vector per column spills.
#if defined(__GNUC__) || defined(__clang__)
#define PTLR_HAVE_VEC_EXT 1
using v8d = double __attribute__((vector_size(8 * sizeof(double))));
#endif

template <int MR, int NR>
void micro_kernel(int kc, const double* PTLR_RESTRICT ap,
                  const double* PTLR_RESTRICT bp, double* PTLR_RESTRICT c,
                  int ldc, int mr, int nr) {
#ifdef PTLR_HAVE_VEC_EXT
  static_assert(MR % 8 == 0, "MR must be a multiple of the 8-wide vector");
  constexpr int kV = MR / 8;
  v8d acc[NR][kV] = {};
  for (int p = 0; p < kc; ++p) {
    const double* PTLR_RESTRICT arow = ap + static_cast<std::size_t>(p) * MR;
    v8d av[kV];
    for (int v = 0; v < kV; ++v)
      __builtin_memcpy(&av[v], arow + 8 * v, sizeof(v8d));
    const double* PTLR_RESTRICT brow = bp + static_cast<std::size_t>(p) * NR;
    for (int j = 0; j < NR; ++j) {
      const double bj = brow[j];
      for (int v = 0; v < kV; ++v) acc[j][v] += av[v] * bj;
    }
  }
  // Whole vectors in and out: indexing lanes of `acc` by a runtime value
  // would pin the accumulators to memory inside the loop above.
  if (mr == MR && nr == NR) {
    for (int j = 0; j < NR; ++j) {
      double* cj = c + static_cast<std::size_t>(j) * ldc;
      for (int v = 0; v < kV; ++v) {
        v8d cv;
        __builtin_memcpy(&cv, cj + 8 * v, sizeof cv);
        cv += acc[j][v];
        __builtin_memcpy(cj + 8 * v, &cv, sizeof cv);
      }
    }
  } else {
    double tile[NR][MR];
    __builtin_memcpy(tile, acc, sizeof tile);
    for (int j = 0; j < nr; ++j) {
      double* cj = c + static_cast<std::size_t>(j) * ldc;
      for (int i = 0; i < mr; ++i) cj[i] += tile[j][i];
    }
  }
#else
  double acc[NR][MR] = {};
  for (int p = 0; p < kc; ++p) {
    const double* PTLR_RESTRICT arow = ap + static_cast<std::size_t>(p) * MR;
    const double* PTLR_RESTRICT brow = bp + static_cast<std::size_t>(p) * NR;
    for (int j = 0; j < NR; ++j) {
      const double bj = brow[j];
      for (int i = 0; i < MR; ++i) acc[j][i] += arow[i] * bj;
    }
  }
  for (int j = 0; j < nr; ++j) {
    double* cj = c + static_cast<std::size_t>(j) * ldc;
    for (int i = 0; i < mr; ++i) cj[i] += acc[j][i];
  }
#endif
}

// Reusable per-thread packing workspace of one tile shape. Sized once to
// the largest block (kMC/kNC rounded up to full micro-panels), so
// task-parallel tile updates stop allocating per GEMM call after their
// first.
struct PackBuffers {
  std::vector<double> a, b;
};

template <int MR, int NR>
PackBuffers& pack_buffers() {
  thread_local PackBuffers bufs{
      std::vector<double>(static_cast<std::size_t>(round_up(kMC, MR)) * kKC),
      std::vector<double>(static_cast<std::size_t>(round_up(kNC, NR)) * kKC)};
  return bufs;
}

KernelPath initial_kernel_path() {
  const char* env = std::getenv("PTLR_DENSE_UNBLOCKED");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    return KernelPath::kUnblocked;
  }
  return KernelPath::kAuto;
}

KernelPath& kernel_path_state() {
  static KernelPath path = initial_kernel_path();
  return path;
}

}  // namespace

template <int MR, int NR>
void gemm_blocked_tile(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                       ConstMatrixView b, MatrixView c, TriMask mask,
                       const double* bpacked) {
  const int m = c.rows(), n = c.cols();
  const int k = ta == Trans::N ? a.cols() : a.rows();
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  PTLR_ASSERT(bpacked == nullptr || (k <= kKC && n <= kNC),
              "a pre-packed B must be a single (KC, NC) block");
  PackBuffers& bufs = pack_buffers<MR, NR>();
  double* apack = bufs.a.data();
  const double* bpack = bpacked != nullptr ? bpacked : bufs.b.data();
  const int ldc = c.ld();

  for (int jc = 0; jc < n; jc += kNC) {
    const int nc = n - jc < kNC ? n - jc : kNC;
    for (int pc = 0; pc < k; pc += kKC) {
      const int kc = k - pc < kKC ? k - pc : kKC;
      if (bpacked == nullptr) {
        pack_b<NR>(tb, b, pc, jc, kc, nc, bufs.b.data());
      }
      for (int ic = 0; ic < m; ic += kMC) {
        const int mc = m - ic < kMC ? m - ic : kMC;
        // A cache-block fully outside the requested triangle never packs.
        if (mask == TriMask::kLower && jc > ic + mc - 1) continue;
        if (mask == TriMask::kUpper && ic > jc + nc - 1) continue;
        pack_a<MR>(ta, alpha, a, ic, pc, mc, kc, apack);
        for (int jr = 0; jr < nc; jr += NR) {
          const int nr = nc - jr < NR ? nc - jr : NR;
          const double* bp =
              bpack + static_cast<std::size_t>(jr / NR) * kc * NR;
          for (int ir = 0; ir < mc; ir += MR) {
            const int mr = mc - ir < MR ? mc - ir : MR;
            const int r0 = ic + ir, c0 = jc + jr;
            if (mask == TriMask::kLower && c0 > r0 + mr - 1) continue;
            if (mask == TriMask::kUpper && r0 > c0 + nr - 1) continue;
            const double* ap =
                apack + static_cast<std::size_t>(ir / MR) * kc * MR;
            // Straddling microtiles land in a scratch tile and copy the
            // in-triangle lanes; interior tiles write C directly.
            const bool straddle =
                (mask == TriMask::kLower && c0 + nr - 1 > r0) ||
                (mask == TriMask::kUpper && r0 + mr - 1 > c0);
            if (!straddle) {
              micro_kernel<MR, NR>(kc, ap, bp, c.col(c0) + r0, ldc, mr, nr);
            } else {
              double tile[MR * NR] = {};
              micro_kernel<MR, NR>(kc, ap, bp, tile, MR, mr, nr);
              for (int j = 0; j < nr; ++j) {
                double* cj = c.col(c0 + j) + r0;
                for (int i = 0; i < mr; ++i) {
                  const bool in_tri = mask == TriMask::kLower
                                          ? r0 + i >= c0 + j
                                          : r0 + i <= c0 + j;
                  if (in_tri) cj[i] += tile[j * MR + i];
                }
              }
            }
          }
        }
      }
    }
  }
}

template void gemm_blocked_tile<8, 6>(Trans, Trans, double, ConstMatrixView,
                                      ConstMatrixView, MatrixView, TriMask,
                                      const double*);
template void gemm_blocked_tile<16, 12>(Trans, Trans, double,
                                        ConstMatrixView, ConstMatrixView,
                                        MatrixView, TriMask, const double*);

void gemm_blocked(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                  ConstMatrixView b, MatrixView c, TriMask mask) {
  gemm_blocked_tile<kMR, kNR>(ta, tb, alpha, a, b, c, mask);
}

void gemm_unblocked(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                    ConstMatrixView b, MatrixView c) {
  const int m = c.rows(), n = c.cols();
  const int k = ta == Trans::N ? a.cols() : a.rows();
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;
  // The seed's unit-stride loop forms. Deliberately no `w == 0` shortcuts:
  // reference BLAS computes 0 * NaN = NaN, and so do we.
  if (ta == Trans::N && tb == Trans::N) {
    // Gaxpy form: C(:,j) += alpha * A(:,p) * B(p,j).
    for (int j = 0; j < n; ++j) {
      double* cj = c.col(j);
      const double* bj = b.col(j);
      for (int p = 0; p < k; ++p) {
        const double w = alpha * bj[p];
        const double* ap = a.col(p);
        for (int i = 0; i < m; ++i) cj[i] += w * ap[i];
      }
    }
  } else if (ta == Trans::N && tb == Trans::T) {
    // C(:,j) += alpha * A(:,p) * B(j,p).
    for (int j = 0; j < n; ++j) {
      double* cj = c.col(j);
      for (int p = 0; p < k; ++p) {
        const double w = alpha * b(j, p);
        const double* ap = a.col(p);
        for (int i = 0; i < m; ++i) cj[i] += w * ap[i];
      }
    }
  } else if (ta == Trans::T && tb == Trans::N) {
    // C(i,j) += alpha * dot(A(:,i), B(:,j)); both unit stride.
    for (int j = 0; j < n; ++j) {
      double* cj = c.col(j);
      const double* bj = b.col(j);
      for (int i = 0; i < m; ++i) {
        cj[i] += alpha * dot(k, a.col(i), bj);
      }
    }
  } else {  // T, T
    // C(i,j) += alpha * sum_p A(p,i) * B(j,p).
    for (int j = 0; j < n; ++j) {
      double* cj = c.col(j);
      for (int i = 0; i < m; ++i) {
        const double* ai = a.col(i);
        double s = 0.0;
        for (int p = 0; p < k; ++p) s += ai[p] * b(j, p);
        cj[i] += alpha * s;
      }
    }
  }
}

bool worth_blocking(int m, int n, int k) {
  // Packing moves O(m*k + k*n) bytes to save O(m*n*k) strided accesses;
  // below ~32^3 of volume the naive unit-stride loops win.
  return static_cast<double>(m) * n * k >= 32.0 * 32.0 * 32.0;
}

void gemm_body(Trans ta, Trans tb, double alpha, ConstMatrixView a,
               ConstMatrixView b, MatrixView c) {
  const int m = c.rows();
  const int n = c.cols();
  const int k = ta == Trans::N ? a.cols() : a.rows();
  const KernelPath path = kernel_path();
  const bool blocked =
      path == KernelPath::kBlocked ||
      (path == KernelPath::kAuto && worth_blocking(m, n, k));
  if (!blocked) {
    gemm_unblocked(ta, tb, alpha, a, b, c);
    return;
  }
  if (rt::nested_available() && m >= 2 * kNestedMinChunk &&
      static_cast<double>(m) * n * k >= kNestedMinVolume) {
    // Child tasks over row-chunks of C. Bitwise-safe: each element of C
    // is beta-independent here (the entry point already scaled), equals
    // its packed-alpha microkernel sum over the *k* partition, and the
    // engine's m-blocking boundaries never change a per-element sum — a
    // chunk boundary is just another MC boundary. A-pack buffers are
    // thread_local, so concurrent children never share scratch.
    //
    // When op(B) is one (KC, NC) block — every tile-sized call — it is
    // packed here once and read by every child, which then packs only its
    // own rows of A: the bytes are the ones each child would have packed.
    // The buffer belongs to this call, never to the thread: while this
    // thread waits in sync() it may run other GEMMs' children, and those
    // use its thread-local pack buffers.
    std::unique_ptr<double[]> bshared;
    if (k <= kKC && n <= kNC) {
      bshared = std::make_unique_for_overwrite<double[]>(
          static_cast<std::size_t>(round_up(n, kNR)) * k);
      pack_b<kNR>(tb, b, 0, 0, k, n, bshared.get());
    }
    const double* bp = bshared.get();
    const int nchunks = std::min(m / kNestedMinChunk, kNestedMaxChunks);
    rt::TaskGroup tg;
    for (int t = 0; t < nchunks; ++t) {
      const int r0 = static_cast<int>(
          static_cast<long long>(m) * t / nchunks);
      const int r1 = static_cast<int>(
          static_cast<long long>(m) * (t + 1) / nchunks);
      const ConstMatrixView ai = ta == Trans::N
                                     ? a.block(r0, 0, r1 - r0, k)
                                     : a.block(0, r0, k, r1 - r0);
      const MatrixView ci = c.block(r0, 0, r1 - r0, n);
      tg.spawn([ta, tb, alpha, ai, b, ci, bp] {
        gemm_blocked_tile<kMR, kNR>(ta, tb, alpha, ai, b, ci, TriMask::kNone,
                                    bp);
      });
    }
    tg.sync();
    return;
  }
  gemm_blocked(ta, tb, alpha, a, b, c);
}

}  // namespace ptlr::dense::detail

namespace ptlr::dense {

void set_kernel_path(KernelPath path) { detail::kernel_path_state() = path; }

KernelPath kernel_path() { return detail::kernel_path_state(); }

}  // namespace ptlr::dense
