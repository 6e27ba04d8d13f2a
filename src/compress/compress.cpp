#include "compress/compress.hpp"

#include <algorithm>
#include <cmath>

#include "dense/blas.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"

namespace ptlr::compress {

using dense::Matrix;
using dense::Trans;

Matrix LowRankFactor::to_dense() const {
  Matrix out(rows(), cols());
  if (rank() > 0)
    dense::gemm(Trans::N, Trans::T, 1.0, u.view(), v.view(), 0.0, out.view());
  return out;
}

int truncation_rank(const std::vector<double>& s, double tol) {
  double tail2 = 0.0;
  int k = static_cast<int>(s.size());
  while (k > 0) {
    const double cand = tail2 + s[k - 1] * s[k - 1];
    if (std::sqrt(cand) > tol) break;
    tail2 = cand;
    --k;
  }
  return k;
}

namespace {

// The truncation step compress() and recompress() share. Factors `w`
// (overwritten) as U·Vᵀ with ‖w − U·Vᵀ‖_F ≤ tol: a pivoted QR to tol/2
// finds the rank cheaply, then a Jacobi SVD of the small triangle spends
// what the QR tail left of the budget. Returns std::nullopt when the rank
// exceeds `cap` and `cap` is below min(rows, cols).
std::optional<LowRankFactor> truncated_factor(dense::MatrixView w,
                                              double tol, int cap) {
  const int m = w.rows(), n = w.cols();
  auto piv = dense::geqp3_trunc(w, tol * 0.5, cap);
  if (piv.rank == cap && piv.tail_frob > tol * 0.5 && cap < std::min(m, n))
    return std::nullopt;
  const int kq = piv.rank;  // kq == 0: numerically zero, the rank-0 factor
  if (kq == 0) return LowRankFactor{Matrix(m, 0), Matrix(n, 0)};

  // w = Q * (R P^T); put B = P R^T (n-by-kq) and decompose it. R is the
  // kq-by-n upper-trapezoid of the factored copy, column j belonging to
  // original column jpvt[j].
  Matrix b(n, kq);
  for (int j = 0; j < n; ++j) {
    const int orig = piv.jpvt[j];
    const int rows_in_col = std::min(j + 1, kq);
    for (int i = 0; i < rows_in_col; ++i) b(orig, i) = w(i, j);
  }
  auto svd = dense::jacobi_svd(b.view());  // B = Ub * diag(s) * Wb^T

  // The QR tail R22 lies outside range(Q), so the squared errors add
  // (docs/numerics.md): the SVD may drop sqrt(tol^2 - |R22|^2). R22 is
  // measured exactly; piv.tail_frob is only a downdated estimate.
  const double t = dense::frob_norm(w.block(kq, kq, m - kq, n - kq));
  const double budget = std::sqrt(std::max(tol * tol - t * t, 0.0));
  const int k = truncation_rank(svd.s, budget);

  // U = Q * Wb(:, :k),  V = Ub(:, :k) * diag(s).
  dense::orgqr(w, piv.tau, kq);
  Matrix u(m, k), v(n, k);
  dense::gemm(Trans::N, Trans::N, 1.0, w.block(0, 0, m, kq),
              svd.v.block(0, 0, kq, k), 0.0, u.view());
  for (int j = 0; j < k; ++j)
    for (int i = 0; i < n; ++i) v(i, j) = svd.u(i, j) * svd.s[j];
  return LowRankFactor{std::move(u), std::move(v)};
}

}  // namespace

std::optional<LowRankFactor> compress(dense::ConstMatrixView a,
                                      const Accuracy& acc) {
  PTLR_CHECK(dense::all_finite(a), "compress: non-finite input block");
  Matrix w = dense::to_matrix(a);
  return truncated_factor(w.view(), acc.tol,
                          std::min({a.rows(), a.cols(), acc.maxrank}));
}

int numerical_rank(dense::ConstMatrixView a, const Accuracy& acc) {
  Accuracy unlimited = acc;
  unlimited.maxrank = std::min(a.rows(), a.cols());
  auto f = compress(a, unlimited);
  return f ? f->rank() : unlimited.maxrank;
}

int recompress(LowRankFactor& f, const Accuracy& acc) {
  const int k = f.rank();
  if (k == 0) return 0;
  const int m = f.rows(), n = f.cols();

  // Thin QRs of both factors. If k exceeds a dimension the factor is
  // already rank-limited by that dimension; handle via padded copies.
  const int ku = std::min(m, k), kv = std::min(n, k);
  Matrix qu = f.u, qv = f.v;
  std::vector<double> tau_u, tau_v;
  dense::geqrf(qu.view(), tau_u);
  dense::geqrf(qv.view(), tau_v);
  Matrix ru(ku, k), rv(kv, k);
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i <= std::min(j, ku - 1); ++i) ru(i, j) = qu(i, j);
    for (int i = 0; i <= std::min(j, kv - 1); ++i) rv(i, j) = qv(i, j);
  }
  // Core matrix M = Ru * Rv^T (ku-by-kv); A = Qu M Qv^T. Qu and Qv are
  // orthonormal, so truncating M within tol truncates A within tol. The
  // cap is the core's full rank: the truncation always succeeds.
  Matrix core(ku, kv);
  dense::gemm(Trans::N, Trans::T, 1.0, ru.view(), rv.view(), 0.0,
              core.view());
  const LowRankFactor rounded =
      *truncated_factor(core.view(), acc.tol, std::min(ku, kv));
  const int knew = rounded.rank();
  if (knew >= k) return k;  // no reduction; keep the existing factor

  // Unew = Qu * Um; Vnew = Qv * Vm (the singular values ride in Vm).
  dense::orgqr(qu.view(), tau_u, ku);
  dense::orgqr(qv.view(), tau_v, kv);
  Matrix unew(m, knew), vnew(n, knew);
  dense::gemm(Trans::N, Trans::N, 1.0, qu.block(0, 0, m, ku),
              rounded.u.view(), 0.0, unew.view());
  dense::gemm(Trans::N, Trans::N, 1.0, qv.block(0, 0, n, kv),
              rounded.v.view(), 0.0, vnew.view());
  f.u = std::move(unew);
  f.v = std::move(vnew);
  return knew;
}

double approximation_error(dense::ConstMatrixView a, const LowRankFactor& f) {
  Matrix rec = f.to_dense();
  return dense::frob_diff(a, rec.view());
}

}  // namespace ptlr::compress
