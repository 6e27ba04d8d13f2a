#include "dense/blas.hpp"

#include <algorithm>
#include <cmath>

#include "common/flops.hpp"
#include "dense/gemm_kernel.hpp"
#include "runtime/nested.hpp"

namespace ptlr::dense {

namespace {

// Balanced [r0, r1) boundaries for child-task chunking: nchunks pieces of
// `extent`, each at least kNestedMinChunk wide (callers guarantee
// extent >= 2 * kNestedMinChunk before asking for nchunks >= 2).
int chunk_lo(int extent, int nchunks, int t) {
  return static_cast<int>(static_cast<long long>(extent) * t / nchunks);
}

// Dimension of op(X) given the trans flag.
int op_rows(Trans t, ConstMatrixView x) { return t == Trans::N ? x.rows() : x.cols(); }
int op_cols(Trans t, ConstMatrixView x) { return t == Trans::N ? x.cols() : x.rows(); }

void scale_matrix(MatrixView c, double beta) {
  if (beta == 1.0) return;
  for (int j = 0; j < c.cols(); ++j) {
    double* cj = c.col(j);
    if (beta == 0.0) {
      // BLAS semantics: beta == 0 overwrites C without reading it, so a
      // NaN/Inf already in C does not survive.
      for (int i = 0; i < c.rows(); ++i) cj[i] = 0.0;
    } else {
      for (int i = 0; i < c.rows(); ++i) cj[i] *= beta;
    }
  }
}

// True when the configured path routes a triangular level-3 call (n-sized
// triangle, `volume` = m*n*k-equivalent) through the blocked engine.
bool blocked_l3(int n, double volume) {
  const KernelPath path = kernel_path();
  if (path == KernelPath::kUnblocked) return false;
  if (path == KernelPath::kBlocked) return true;
  return n > detail::kOuterNB && volume >= 32.0 * 32.0 * 32.0;
}

// Unblocked triangle-restricted SYRK: C += alpha * op(A) * op(A)^T on the
// `uplo` triangle only (beta already applied, flops already charged).
void syrk_unblocked(Uplo uplo, Trans ta, double alpha, ConstMatrixView a,
                    MatrixView c) {
  const int n = c.rows(), k = op_cols(ta, a);
  if (ta == Trans::N) {
    // C(i,j) += alpha * sum_p A(i,p) * A(j,p), triangle-restricted gaxpy.
    for (int j = 0; j < n; ++j) {
      double* cj = c.col(j);
      for (int p = 0; p < k; ++p) {
        const double w = alpha * a(j, p);
        const double* ap = a.col(p);
        if (uplo == Uplo::Lower) {
          for (int i = j; i < n; ++i) cj[i] += w * ap[i];
        } else {
          for (int i = 0; i <= j; ++i) cj[i] += w * ap[i];
        }
      }
    }
  } else {
    // C(i,j) += alpha * dot(A(:,i), A(:,j)).
    for (int j = 0; j < n; ++j) {
      double* cj = c.col(j);
      const double* aj = a.col(j);
      const int lo = uplo == Uplo::Lower ? j : 0;
      const int hi = uplo == Uplo::Lower ? n : j + 1;
      for (int i = lo; i < hi; ++i) cj[i] += alpha * dot(k, a.col(i), aj);
    }
  }
}

#if defined(__GNUC__) || defined(__clang__)
using v8d = double __attribute__((vector_size(8 * sizeof(double))));

// Rows [i0, i0 + 8 * V) of the Side::Right column recurrences below (X
// op(A) = B), held in V vectors across the whole column sweep. Each
// element sees the same multiply-adds, in the same order, and the same
// reciprocal scaling as under the axpy/scal loops, so the result is
// bitwise theirs; only the store and reload of X(:, j) between updates
// are gone. op(A) upper (Upper/N, Lower/T) solves left to right.
template <int V>
void trsm_right_rows(Uplo uplo, Trans ta, bool unit, ConstMatrixView a,
                     MatrixView b, int i0) {
  const int n = b.cols();
  const bool forward = (uplo == Uplo::Upper) == (ta == Trans::N);
  for (int t = 0; t < n; ++t) {
    const int j = forward ? t : n - 1 - t;
    const int p0 = forward ? 0 : j + 1, p1 = forward ? j : n;
    double* bj = b.col(j) + i0;
    v8d y[V];
    for (int v = 0; v < V; ++v)
      __builtin_memcpy(&y[v], bj + 8 * v, sizeof(v8d));
    for (int p = p0; p < p1; ++p) {
      const double w = -(ta == Trans::T ? a(j, p) : a(p, j));
      const double* xp = b.col(p) + i0;
      for (int v = 0; v < V; ++v) {
        v8d x;
        __builtin_memcpy(&x, xp + 8 * v, sizeof x);
        y[v] += w * x;
      }
    }
    if (!unit) {
      const double s = 1.0 / a(j, j);
      for (int v = 0; v < V; ++v) y[v] *= s;
    }
    for (int v = 0; v < V; ++v)
      __builtin_memcpy(bj + 8 * v, &y[v], sizeof(v8d));
  }
}
#endif

// Unblocked triangular solve (alpha already applied, flops already
// charged): the seed's substitution loops, kept as the reference path and
// as the diagonal-block solver of the blocked form.
void trsm_unblocked(Side side, Uplo uplo, Trans ta, Diag diag,
                    ConstMatrixView a, MatrixView b) {
  const bool unit = diag == Diag::Unit;
#if defined(__GNUC__) || defined(__clang__)
  if (side == Side::Right) {
    // Right-side rows are independent: whole vectors of rows first, the
    // leftover rows through the loops below.
    int i0 = 0;
    for (; i0 + 32 <= b.rows(); i0 += 32)
      trsm_right_rows<4>(uplo, ta, unit, a, b, i0);
    for (; i0 + 8 <= b.rows(); i0 += 8)
      trsm_right_rows<1>(uplo, ta, unit, a, b, i0);
    if (i0 == b.rows()) return;
    b = b.block(i0, 0, b.rows() - i0, b.cols());
  }
#endif
  const int m = b.rows(), n = b.cols();
  if (side == Side::Left) {
    for (int j = 0; j < n; ++j) {
      double* bj = b.col(j);
      if (uplo == Uplo::Lower && ta == Trans::N) {
        // Forward substitution, axpy form.
        for (int p = 0; p < m; ++p) {
          if (!unit) bj[p] /= a(p, p);
          const double w = bj[p];
          const double* ap = a.col(p);
          for (int i = p + 1; i < m; ++i) bj[i] -= w * ap[i];
        }
      } else if (uplo == Uplo::Lower && ta == Trans::T) {
        // Backward substitution, dot form (column of A is contiguous).
        for (int p = m - 1; p >= 0; --p) {
          double s = bj[p] - dot(m - p - 1, a.col(p) + p + 1, bj + p + 1);
          bj[p] = unit ? s : s / a(p, p);
        }
      } else if (uplo == Uplo::Upper && ta == Trans::N) {
        // Backward substitution, axpy form.
        for (int p = m - 1; p >= 0; --p) {
          if (!unit) bj[p] /= a(p, p);
          const double w = bj[p];
          const double* ap = a.col(p);
          for (int i = 0; i < p; ++i) bj[i] -= w * ap[i];
        }
      } else {  // Upper, T: forward substitution, dot form.
        for (int p = 0; p < m; ++p) {
          double s = bj[p] - dot(p, a.col(p), bj);
          bj[p] = unit ? s : s / a(p, p);
        }
      }
    }
  } else {  // Side::Right — X * op(A) = B, column-block recurrences.
    // No `w == 0` shortcuts here (reference BLAS propagates 0 * NaN).
    if (uplo == Uplo::Lower && ta == Trans::T) {
      // Forward over columns: X(:,j) = (B(:,j) - sum_{p<j} X(:,p)A(j,p))/A(j,j).
      for (int j = 0; j < n; ++j) {
        double* bj = b.col(j);
        for (int p = 0; p < j; ++p) axpy(m, -a(j, p), b.col(p), bj);
        if (!unit) scal(m, 1.0 / a(j, j), bj);
      }
    } else if (uplo == Uplo::Lower && ta == Trans::N) {
      // Backward: X(:,j) = (B(:,j) - sum_{p>j} X(:,p)A(p,j))/A(j,j).
      for (int j = n - 1; j >= 0; --j) {
        double* bj = b.col(j);
        for (int p = j + 1; p < n; ++p) axpy(m, -a(p, j), b.col(p), bj);
        if (!unit) scal(m, 1.0 / a(j, j), bj);
      }
    } else if (uplo == Uplo::Upper && ta == Trans::N) {
      // Forward: X(:,j) = (B(:,j) - sum_{p<j} X(:,p)A(p,j))/A(j,j).
      for (int j = 0; j < n; ++j) {
        double* bj = b.col(j);
        for (int p = 0; p < j; ++p) axpy(m, -a(p, j), b.col(p), bj);
        if (!unit) scal(m, 1.0 / a(j, j), bj);
      }
    } else {  // Upper, T — backward.
      for (int j = n - 1; j >= 0; --j) {
        double* bj = b.col(j);
        for (int p = j + 1; p < n; ++p) axpy(m, -a(j, p), b.col(p), bj);
        if (!unit) scal(m, 1.0 / a(j, j), bj);
      }
    }
  }
}

// Recursive triangular solve (alpha already applied, flops already
// charged): split the triangle in half, solve the independent half first,
// fold its contribution into the other half with one fat GEMM on the
// blocked engine, recurse. Bottoms out on the reference substitution at
// kOuterNB, so the unblocked fraction of the O(na^2 * nrhs) volume decays
// like kOuterNB / na.
void trsm_body(Side side, Uplo uplo, Trans ta, Diag diag, ConstMatrixView a,
               MatrixView b) {
  const int m = b.rows(), n = b.cols();
  const int na = side == Side::Left ? m : n;
  const int nrhs = side == Side::Left ? n : m;
  if (!blocked_l3(na, static_cast<double>(na) * na * nrhs) ||
      na <= detail::kOuterNB) {
    trsm_unblocked(side, uplo, ta, diag, a, b);
    return;
  }
  const int n1 = na / 2, n2 = na - n1;
  auto a11 = a.block(0, 0, n1, n1);
  auto a22 = a.block(n1, n1, n2, n2);
  // The off-diagonal block of the triangle: A21 for Lower, A12 for Upper.
  auto aoff = uplo == Uplo::Lower ? a.block(n1, 0, n2, n1)
                                  : a.block(0, n1, n1, n2);
  if (side == Side::Left) {
    auto b1 = b.block(0, 0, n1, n), b2 = b.block(n1, 0, n2, n);
    // op(A) lower (Lower/N, Upper/T) solves top-down; upper bottom-up.
    if ((uplo == Uplo::Lower) == (ta == Trans::N)) {
      trsm_body(side, uplo, ta, diag, a11, b1);
      if (uplo == Uplo::Lower) {
        detail::gemm_body(Trans::N, Trans::N, -1.0, aoff, b1, b2);
      } else {
        detail::gemm_body(Trans::T, Trans::N, -1.0, aoff, b1, b2);
      }
      trsm_body(side, uplo, ta, diag, a22, b2);
    } else {
      trsm_body(side, uplo, ta, diag, a22, b2);
      if (uplo == Uplo::Lower) {
        detail::gemm_body(Trans::T, Trans::N, -1.0, aoff, b2, b1);
      } else {
        detail::gemm_body(Trans::N, Trans::N, -1.0, aoff, b2, b1);
      }
      trsm_body(side, uplo, ta, diag, a11, b1);
    }
  } else {
    auto b1 = b.block(0, 0, m, n1), b2 = b.block(0, n1, m, n2);
    // X op(A) = B: op(A) upper (Upper/N, Lower/T) solves left-to-right.
    if ((uplo == Uplo::Upper) == (ta == Trans::N)) {
      trsm_body(side, uplo, ta, diag, a11, b1);
      if (uplo == Uplo::Upper) {
        detail::gemm_body(Trans::N, Trans::N, -1.0, b1, aoff, b2);
      } else {
        detail::gemm_body(Trans::N, Trans::T, -1.0, b1, aoff, b2);
      }
      trsm_body(side, uplo, ta, diag, a22, b2);
    } else {
      trsm_body(side, uplo, ta, diag, a22, b2);
      if (uplo == Uplo::Upper) {
        detail::gemm_body(Trans::N, Trans::T, -1.0, b2, aoff, b1);
      } else {
        detail::gemm_body(Trans::N, Trans::N, -1.0, b2, aoff, b1);
      }
      trsm_body(side, uplo, ta, diag, a11, b1);
    }
  }
}

}  // namespace

double dot(int n, const double* x, const double* y) {
  // Eight partial sums: element i always feeds lane i % 8, whatever the
  // length or the alignment of x and y, and the lanes are combined in one
  // fixed tree. The order is part of the contract (docs/numerics.md), so
  // the result is deterministic; the independent lanes hide the FMA
  // latency and let the compiler keep them in vector registers.
  double s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  int i = 0;
  for (; i + 8 <= n; i += 8)
    for (int l = 0; l < 8; ++l) s[l] += x[i + l] * y[i + l];
  for (int l = 0; i + l < n; ++l) s[l] += x[i + l] * y[i + l];
  return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]));
}

void axpy(int n, double alpha, const double* x, double* y) {
  for (int i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scal(int n, double alpha, double* x) {
  for (int i = 0; i < n; ++i) x[i] *= alpha;
}

double nrm2(int n, const double* x) {
  // Scaled accumulation to avoid overflow/underflow for extreme inputs.
  double scale = 0.0, ssq = 1.0;
  for (int i = 0; i < n; ++i) {
    const double v = std::abs(x[i]);
    if (v == 0.0) continue;
    if (scale < v) {
      ssq = 1.0 + ssq * (scale / v) * (scale / v);
      scale = v;
    } else {
      ssq += (v / scale) * (v / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c) {
  const int m = c.rows(), n = c.cols(), k = op_cols(ta, a);
  PTLR_CHECK(op_rows(ta, a) == m && op_rows(tb, b) == k &&
                 op_cols(tb, b) == n,
             "gemm dimension mismatch");
  scale_matrix(c, beta);
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;
  flops::Counter::add(flops::gemm(m, n, k));
  detail::gemm_body(ta, tb, alpha, a, b, c);
}

void syrk(Uplo uplo, Trans ta, double alpha, ConstMatrixView a, double beta,
          MatrixView c) {
  const int n = c.rows(), k = op_cols(ta, a);
  PTLR_CHECK(c.cols() == n && op_rows(ta, a) == n, "syrk dimension mismatch");
  // Scale the referenced triangle only.
  for (int j = 0; j < n; ++j) {
    const int lo = uplo == Uplo::Lower ? j : 0;
    const int hi = uplo == Uplo::Lower ? n : j + 1;
    double* cj = c.col(j);
    if (beta == 0.0) {
      for (int i = lo; i < hi; ++i) cj[i] = 0.0;
    } else if (beta != 1.0) {
      for (int i = lo; i < hi; ++i) cj[i] *= beta;
    }
  }
  if (alpha == 0.0 || n == 0 || k == 0) return;
  flops::Counter::add(flops::syrk(n, k));

  if (!blocked_l3(n, static_cast<double>(n) * n * k)) {
    syrk_unblocked(uplo, ta, alpha, a, c);
    return;
  }
  // Ride the packed GEMM engine with a triangle mask: C += alpha * op(A) *
  // op(A)^T restricted to `uplo`. One packing pass, full microkernel speed;
  // microtiles outside the triangle are skipped, straddlers masked at
  // write-back. No extra flops charged — the model above covers it all.
  const Trans tb = ta == Trans::N ? Trans::T : Trans::N;
  const detail::TriMask mask = uplo == Uplo::Lower ? detail::TriMask::kLower
                                                   : detail::TriMask::kUpper;
  if (rt::nested_available() && n >= 2 * detail::kNestedMinChunk &&
      static_cast<double>(n) * n * k >= detail::kNestedMinVolume) {
    // Child tasks over row-blocks of C: each child owns its diagonal
    // triangle block (the mask condition is local — the block sits on the
    // diagonal) plus its in-triangle off-diagonal rectangle. Bitwise-safe
    // for the same reason as the GEMM chunking: every in-triangle element
    // is produced by the identical packed k-sum; the decomposition only
    // redraws blocking boundaries and re-labels which call skips the
    // out-of-triangle area. Children call gemm_blocked directly, so no
    // size-dependent dispatch can diverge from the undivided call.
    const int nchunks =
        std::min(n / detail::kNestedMinChunk, detail::kNestedMaxChunks);
    rt::TaskGroup tg;
    for (int t = 0; t < nchunks; ++t) {
      const int r0 = chunk_lo(n, nchunks, t);
      const int r1 = chunk_lo(n, nchunks, t + 1);
      const int nb = r1 - r0;
      const ConstMatrixView ai = ta == Trans::N ? a.block(r0, 0, nb, k)
                                                : a.block(0, r0, k, nb);
      const MatrixView cd = c.block(r0, r0, nb, nb);
      if (uplo == Uplo::Lower) {
        tg.spawn([ta, tb, alpha, a, ai, cd, mask, r0, nb, k, &c] {
          detail::gemm_blocked(ta, tb, alpha, ai, ai, cd, mask);
          if (r0 > 0) {
            const ConstMatrixView a0 = ta == Trans::N
                                           ? a.block(0, 0, r0, k)
                                           : a.block(0, 0, k, r0);
            detail::gemm_blocked(ta, tb, alpha, ai, a0,
                                 c.block(r0, 0, nb, r0));
          }
        });
      } else {
        tg.spawn([ta, tb, alpha, a, ai, cd, mask, r1, r0, nb, k, n, &c] {
          detail::gemm_blocked(ta, tb, alpha, ai, ai, cd, mask);
          if (r1 < n) {
            const ConstMatrixView a2 = ta == Trans::N
                                           ? a.block(r1, 0, n - r1, k)
                                           : a.block(0, r1, k, n - r1);
            detail::gemm_blocked(ta, tb, alpha, ai, a2,
                                 c.block(r0, r1, nb, n - r1));
          }
        });
      }
    }
    tg.sync();
    return;
  }
  detail::gemm_blocked(ta, tb, alpha, a, a, c, mask);
}

void trsm(Side side, Uplo uplo, Trans ta, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b) {
  const int m = b.rows(), n = b.cols();
  const int na = side == Side::Left ? m : n;
  PTLR_CHECK(a.rows() == na && a.cols() == na, "trsm dimension mismatch");
  if (alpha != 1.0) scale_matrix(b, alpha);
  if (m == 0 || n == 0) return;
  flops::Counter::add(side == Side::Left ? flops::trsm(m, n)
                                         : flops::trsm(n, m));
  const int nrhs = side == Side::Left ? n : m;
  if (rt::nested_available() && nrhs >= 2 * detail::kNestedMinChunk &&
      static_cast<double>(na) * na * nrhs >= detail::kNestedMinVolume &&
      blocked_l3(na, static_cast<double>(na) * na * nrhs)) {
    // Child tasks over the right-hand sides: columns of B for Side::Left,
    // rows for Side::Right — the triangular solve treats each one
    // independently at every level (substitution loops are per-column /
    // per-row, the recursion splits only the na axis). Bitwise-safe
    // because a chunk of >= kNestedMinChunk rhs keeps every dispatch on
    // the fat call's branch: blocked_l3(na', na'^2 * nrhs') and
    // worth_blocking on the internal GEMM folds are already far above
    // their thresholds at nrhs' = 64 for every na' > kOuterNB the
    // recursion visits, and below that both takes are unblocked anyway.
    const int nchunks =
        std::min(nrhs / detail::kNestedMinChunk, detail::kNestedMaxChunks);
    rt::TaskGroup tg;
    for (int t = 0; t < nchunks; ++t) {
      const int s0 = chunk_lo(nrhs, nchunks, t);
      const int s1 = chunk_lo(nrhs, nchunks, t + 1);
      const MatrixView bc = side == Side::Left
                                ? b.block(0, s0, m, s1 - s0)
                                : b.block(s0, 0, s1 - s0, n);
      tg.spawn([side, uplo, ta, diag, a, bc] {
        trsm_body(side, uplo, ta, diag, a, bc);
      });
    }
    tg.sync();
    return;
  }
  trsm_body(side, uplo, ta, diag, a, b);
}

void gemv(Trans ta, double alpha, ConstMatrixView a, const double* x,
          double beta, double* y) {
  const int m = a.rows(), n = a.cols();
  const int ny = ta == Trans::N ? m : n;
  if (beta == 0.0) {
    for (int i = 0; i < ny; ++i) y[i] = 0.0;
  } else if (beta != 1.0) {
    scal(ny, beta, y);
  }
  if (alpha == 0.0) return;
  flops::Counter::add(2.0 * m * n);
  if (ta == Trans::N) {
    for (int j = 0; j < n; ++j) axpy(m, alpha * x[j], a.col(j), y);
  } else {
    for (int j = 0; j < n; ++j) y[j] += alpha * dot(m, a.col(j), x);
  }
}

}  // namespace ptlr::dense
