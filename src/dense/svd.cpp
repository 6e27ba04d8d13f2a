#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/flops.hpp"
#include "dense/lapack.hpp"

namespace ptlr::dense {

// One-sided Jacobi SVD (Hestenes). Rotations are applied to column pairs of
// a working copy of A until all pairs are numerically orthogonal; singular
// values are the resulting column norms. Robust and accurate for the small
// (k-by-k to b-by-b) factors PTLR decomposes.
//
// The cost is what the tile compressors pay for, so the kernel is written
// for FMA throughput rather than latency:
//   * squared column norms are computed once per sweep and updated
//     analytically after each rotation, so a pair costs one dot product
//     instead of three;
//   * a tall input (m > n) is first reduced by Householder QR, A = Q R, and
//     the rotations run on the n-by-n triangle R. One-sided Jacobi sees a
//     matrix only through its Gram matrix, and R^T R = A^T A, so R takes the
//     same rotations as A while every one of them touches n rows instead
//     of m. U = Q * U_R at the end (docs/numerics.md).

namespace {

constexpr int kMaxSweeps = 42;
constexpr double kEps = 1e-15;

// [x y] <- [x y] * [cs sn; -sn cs] on length-n columns.
void rotate(int n, double cs, double sn, double* x, double* y) {
  for (int i = 0; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = cs * xi - sn * yi;
    y[i] = sn * xi + cs * yi;
  }
}

// Rotates the columns of w (m-by-n, m >= n) until every pair is
// numerically orthogonal, accumulating the rotations into v (n-by-n, the
// identity on entry). Returns the flops performed.
double hestenes(MatrixView w, MatrixView v) {
  const int m = w.rows(), n = w.cols();
  std::vector<double> d(n);
  double flops = 0.0;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    // Squared column norms: exact at the start of every sweep, then
    // carried through the rotations. They only steer the rotation angles
    // and the skip test; a sweep that rotates nothing, the one that ends
    // the iteration, never updates them.
    for (int j = 0; j < n; ++j) d[j] = dot(m, w.col(j), w.col(j));
    double pairs = 0.0, rotations = 0.0;
    for (int p = 0; p < n - 1; ++p) {
      double* wp = w.col(p);
      for (int q = p + 1; q < n; ++q) {
        double* wq = w.col(q);
        const double apq = dot(m, wp, wq);
        pairs += 1.0;
        if (std::abs(apq) <= kEps * std::sqrt(d[p] * d[q])) continue;
        rotations += 1.0;
        // Two-sided rotation parameters that annihilate apq.
        const double zeta = (d[q] - d[p]) / (2.0 * apq);
        const double t =
            std::copysign(1.0, zeta) /
            (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double cs = 1.0 / std::sqrt(1.0 + t * t);
        const double sn = cs * t;
        rotate(m, cs, sn, wp, wq);
        rotate(n, cs, sn, v.col(p), v.col(q));
        // The rotated Gram diagonal: app - t*apq and aqq + t*apq.
        d[p] -= t * apq;
        d[q] += t * apq;
      }
    }
    // Norms and pair products are dots over m rows; a rotation updates two
    // columns of W (m rows) and two of V (n rows) at 6 flops per row.
    flops += 2.0 * m * (n + pairs) + 6.0 * (m + n) * rotations;
    if (rotations == 0.0) break;
  }
  return flops;
}

// Jacobi SVD of a square or tall working copy w; consumes w.
Svd jacobi_core(Matrix w) {
  const int m = w.rows(), n = w.cols();
  Svd out;
  out.v = Matrix(n, n);
  for (int j = 0; j < n; ++j) out.v(j, j) = 1.0;
  flops::Counter::add(hestenes(w.view(), out.v.view()));

  // Column norms are the singular values; normalize U's columns.
  out.s.assign(n, 0.0);
  for (int j = 0; j < n; ++j) {
    double* wj = w.view().col(j);
    const double sj = nrm2(m, wj);
    out.s[j] = sj;
    if (sj > 0.0) scal(m, 1.0 / sj, wj);
  }

  // Sort descending, permuting U and V consistently.
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](int x, int y) { return out.s[x] > out.s[y]; });
  Matrix us(m, n), vs(n, n);
  std::vector<double> ss(n);
  for (int j = 0; j < n; ++j) {
    ss[j] = out.s[perm[j]];
    std::copy_n(w.view().col(perm[j]), m, us.view().col(j));
    std::copy_n(out.v.view().col(perm[j]), n, vs.view().col(j));
  }
  out.u = std::move(us);
  out.v = std::move(vs);
  out.s = std::move(ss);
  return out;
}

}  // namespace

Svd jacobi_svd(ConstMatrixView a) {
  PTLR_CHECK(a.rows() >= a.cols(),
             "jacobi_svd requires rows >= cols; transpose the input");
  const int m = a.rows(), n = a.cols();
  if (n == 0 || m == n) return jacobi_core(to_matrix(a));

  // QR preconditioning: A = Q R, R = U_R S V^T, so A = (Q U_R) S V^T.
  Matrix qr = to_matrix(a);
  std::vector<double> tau;
  geqrf(qr.view(), tau);
  Matrix r(n, n);
  for (int j = 0; j < n; ++j)
    std::copy_n(qr.view().col(j), j + 1, r.view().col(j));
  Svd out = jacobi_core(std::move(r));
  orgqr(qr.view(), tau, n);
  Matrix u(m, n);
  gemm(Trans::N, Trans::N, 1.0, qr.view(), out.u.view(), 0.0, u.view());
  out.u = std::move(u);
  return out;
}

std::vector<double> singular_values(ConstMatrixView a) {
  if (a.rows() >= a.cols()) return jacobi_svd(a).s;
  // Transpose into owning storage and decompose that instead.
  Matrix at(a.cols(), a.rows());
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i) at(j, i) = a(i, j);
  return jacobi_svd(at.view()).s;
}

}  // namespace ptlr::dense
