// LAPACK-subset dense factorizations used by PTLR: Cholesky, Householder QR,
// truncated rank-revealing (column-pivoted) QR, and one-sided Jacobi SVD.
//
// These are reference-quality implementations replacing the MKL routines the
// paper ran on; semantics match the LAPACK equivalents noted on each entry.
#pragma once

#include <vector>

#include "dense/blas.hpp"
#include "dense/matrix.hpp"

namespace ptlr::dense {

/// Blocked Cholesky factorization (DPOTRF). On exit the `uplo` triangle of
/// `a` holds the factor; the opposite triangle is untouched.
/// Throws NumericalError with the 1-based pivot index if `a` is not SPD.
void potrf(Uplo uplo, MatrixView a);

/// Householder QR (DGEQRF). On exit the upper triangle of `a` holds R and
/// the lower part the reflectors; `tau` receives min(m,n) scalar factors.
void geqrf(MatrixView a, std::vector<double>& tau);

/// Form the leading `k` columns of Q from geqrf output (DORGQR).
/// `a` is the geqrf output with m rows; on exit columns [0,k) hold Q.
void orgqr(MatrixView a, const std::vector<double>& tau, int k);

/// Apply Q^T (trans==T) or Q (trans==N) from the left to `c`, where Q is
/// encoded in `a`/`tau` as produced by geqrf (DORMQR, side=Left).
void ormqr(Trans trans, ConstMatrixView a, const std::vector<double>& tau,
           MatrixView c);

/// Result of a truncated column-pivoted QR.
struct PivotedQr {
  int rank = 0;                ///< numerical rank detected at `tol`
  std::vector<int> jpvt;       ///< column permutation: A(:, jpvt) = Q * R
  std::vector<double> tau;     ///< Householder scalars (size rank)
  double tail_frob = 0.0;      ///< Frobenius norm of the unfactored residual
};

/// Truncated rank-revealing QR (DGEQP3 with early exit). Stops once the
/// Frobenius norm of the trailing columns drops below `tol` (absolute) or
/// `maxrank` columns have been factored. On exit `a` holds the factorization
/// of the permuted matrix in geqrf layout (valid for the leading `rank`
/// reflectors).
PivotedQr geqp3_trunc(MatrixView a, double tol, int maxrank);

/// Singular value decomposition A = U * diag(s) * V^T via one-sided Jacobi.
/// Requires rows >= cols (callers transpose if needed); a tall input is
/// reduced by Householder QR first and the rotations run on R. U is m-by-n
/// with orthonormal columns (a zero column for each exactly zero singular
/// value), V is n-by-n orthogonal, s is descending.
struct Svd {
  Matrix u;
  std::vector<double> s;
  Matrix v;
};
Svd jacobi_svd(ConstMatrixView a);

/// Singular values only (convenience for accuracy checks).
std::vector<double> singular_values(ConstMatrixView a);

}  // namespace ptlr::dense
