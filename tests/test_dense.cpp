// Unit tests for ptlr::dense — the BLAS/LAPACK substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/flops.hpp"
#include "compress/compress.hpp"
#include "dense/blas.hpp"
#include "dense/gemm_kernel.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"

using namespace ptlr::dense;
using ptlr::Rng;

namespace {

// Naive triple-loop reference GEMM for validation.
Matrix ref_gemm(Trans ta, Trans tb, double alpha, const Matrix& a,
                const Matrix& b, double beta, const Matrix& c) {
  Matrix out = c;
  const int m = c.rows(), n = c.cols();
  const int k = ta == Trans::N ? a.cols() : a.rows();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = ta == Trans::N ? a(i, p) : a(p, i);
        const double bv = tb == Trans::N ? b(p, j) : b(j, p);
        s += av * bv;
      }
      out(i, j) = alpha * s + beta * c(i, j);
    }
  return out;
}

}  // namespace

namespace {

// Restore the kAuto kernel path when a test that forces a path exits.
struct KernelPathGuard {
  KernelPathGuard() = default;
  KernelPathGuard(const KernelPathGuard&) = delete;
  KernelPathGuard& operator=(const KernelPathGuard&) = delete;
  ~KernelPathGuard() { set_kernel_path(KernelPath::kAuto); }
};

// View-based reference GEMM (handles ld > rows sub-views).
void ref_gemm_view(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                   ConstMatrixView b, double beta, ConstMatrixView c0,
                   MatrixView out) {
  const int m = out.rows(), n = out.cols();
  const int k = ta == Trans::N ? a.cols() : a.rows();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = ta == Trans::N ? a(i, p) : a(p, i);
        const double bv = tb == Trans::N ? b(p, j) : b(j, p);
        s += av * bv;
      }
      out(i, j) = alpha * s + beta * c0(i, j);
    }
}

}  // namespace

// ---------------------------------------------------------------- GEMM ----

struct GemmCase {
  Trans ta, tb;
  int m, n, k;
  double alpha, beta;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesReference) {
  const auto p = GetParam();
  Rng rng(17);
  Matrix a(p.ta == Trans::N ? p.m : p.k, p.ta == Trans::N ? p.k : p.m);
  Matrix b(p.tb == Trans::N ? p.k : p.n, p.tb == Trans::N ? p.n : p.k);
  Matrix c(p.m, p.n);
  fill_uniform(a.view(), rng);
  fill_uniform(b.view(), rng);
  fill_uniform(c.view(), rng);
  const Matrix want = ref_gemm(p.ta, p.tb, p.alpha, a, b, p.beta, c);
  gemm(p.ta, p.tb, p.alpha, a.view(), b.view(), p.beta, c.view());
  EXPECT_LT(frob_diff(c.view(), want.view()), 1e-12 * (1 + frob_norm(want.view())));
}

INSTANTIATE_TEST_SUITE_P(
    AllTransCombos, GemmTest,
    ::testing::Values(
        GemmCase{Trans::N, Trans::N, 13, 7, 9, 1.0, 0.0},
        GemmCase{Trans::N, Trans::T, 13, 7, 9, -1.0, 1.0},
        GemmCase{Trans::T, Trans::N, 13, 7, 9, 2.0, 0.5},
        GemmCase{Trans::T, Trans::T, 13, 7, 9, 1.0, 1.0},
        GemmCase{Trans::N, Trans::N, 1, 1, 1, 1.0, 0.0},
        GemmCase{Trans::N, Trans::T, 32, 32, 32, 1.0, -1.0},
        GemmCase{Trans::T, Trans::N, 5, 40, 3, 0.5, 2.0},
        GemmCase{Trans::N, Trans::N, 40, 2, 17, 1.0, 0.0}));

TEST(Gemm, ZeroAlphaOnlyScalesC) {
  Rng rng(3);
  Matrix a(4, 4), b(4, 4), c(4, 4);
  fill_uniform(a.view(), rng);
  fill_uniform(b.view(), rng);
  fill_uniform(c.view(), rng);
  Matrix want = c;
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i) want(i, j) *= 3.0;
  gemm(Trans::N, Trans::N, 0.0, a.view(), b.view(), 3.0, c.view());
  EXPECT_LT(frob_diff(c.view(), want.view()), 1e-14);
}

TEST(Gemm, DimensionMismatchThrows) {
  Matrix a(4, 5), b(6, 3), c(4, 3);
  EXPECT_THROW(gemm(Trans::N, Trans::N, 1.0, a.view(), b.view(), 0.0, c.view()),
               ptlr::Error);
}

TEST(Gemm, ChargesModelFlops) {
  ptlr::flops::Counter::reset();
  Matrix a(10, 20), b(20, 30), c(10, 30);
  gemm(Trans::N, Trans::N, 1.0, a.view(), b.view(), 0.0, c.view());
  EXPECT_DOUBLE_EQ(ptlr::flops::Counter::total(), 2.0 * 10 * 30 * 20);
}

// Exhaustive oracle for the blocked engine: every Trans combination at
// sizes straddling the MR/NR/MC/KC blocking edges (plus odd/prime shapes),
// alpha/beta corner values, and a componentwise error bound scaled by the
// accumulation depth k. The blocked path is forced so even sub-threshold
// sizes exercise packing, microtile edges, and write-back masking.
TEST(GemmOracle, BlockedMatchesNaiveAcrossBlockingEdges) {
  KernelPathGuard guard;
  // (m, n, k) triples: microkernel edges around MR=8 / NR=6, cache-block
  // edges around MC=256 / KC=256, primes, and degenerate slivers.
  const int cases[][3] = {
      {1, 1, 1},    {8, 6, 4},     {9, 7, 5},    {7, 5, 3},
      {16, 12, 8},  {17, 13, 9},   {63, 47, 31}, {64, 48, 32},
      {65, 49, 33}, {97, 101, 103}, {129, 6, 129}, {257, 7, 9},
      {7, 259, 9},  {13, 11, 257}, {255, 255, 31}, {256, 12, 256},
      {33, 65, 130}, {1, 259, 257},
  };
  const double alphas[] = {0.0, 1.0, -1.0, 0.5};
  const double betas[] = {0.0, 1.0, -1.0, 0.5};
  Rng rng(97);
  int combo = 0;
  for (const auto& sz : cases) {
    const int m = sz[0], n = sz[1], k = sz[2];
    for (const Trans ta : {Trans::N, Trans::T}) {
      for (const Trans tb : {Trans::N, Trans::T}) {
        // Rotate through the alpha/beta corners so every pair appears
        // across the sweep without a full 16x blow-up per size.
        const double alpha = alphas[combo % 4];
        const double beta = betas[(combo / 4) % 4];
        ++combo;
        Matrix a(ta == Trans::N ? m : k, ta == Trans::N ? k : m);
        Matrix b(tb == Trans::N ? k : n, tb == Trans::N ? n : k);
        Matrix c(m, n), want(m, n);
        fill_uniform(a.view(), rng);
        fill_uniform(b.view(), rng);
        fill_uniform(c.view(), rng);
        ref_gemm_view(ta, tb, alpha, a.view(), b.view(), beta, c.view(),
                      want.view());
        set_kernel_path(KernelPath::kBlocked);
        gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view());
        set_kernel_path(KernelPath::kAuto);
        // Componentwise: |err| <= O(k) * eps with |a|,|b| <= 1 entries.
        const double tol = 40.0 * (k + 4) * 2.2e-16 *
                               (std::abs(alpha) + 1e-30) +
                           4.0 * 2.2e-16 * std::abs(beta);
        for (int j = 0; j < n; ++j)
          for (int i = 0; i < m; ++i)
            ASSERT_NEAR(c(i, j), want(i, j), tol)
                << "m=" << m << " n=" << n << " k=" << k
                << " ta=" << (ta == Trans::N ? "N" : "T")
                << " tb=" << (tb == Trans::N ? "N" : "T")
                << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

// Sub-views with ld > rows must pack and write back correctly.
TEST(GemmOracle, BlockedHandlesPaddedLeadingDimensions) {
  KernelPathGuard guard;
  Rng rng(101);
  const int m = 67, n = 51, k = 70;
  Matrix pa(m + 9, k + 3), pb(n + 5, k + 7), pc(m + 11, n + 2);
  fill_uniform(pa.view(), rng);
  fill_uniform(pb.view(), rng);
  fill_uniform(pc.view(), rng);
  auto a = pa.block(4, 2, m, k);    // ld = m + 9
  auto b = pb.block(3, 5, n, k);    // op(B) = B^T, ld = n + 5
  auto c = pc.block(7, 1, m, n);    // ld = m + 11
  Matrix want(m, n);
  ref_gemm_view(Trans::N, Trans::T, -0.5, a, b, 1.0, c, want.view());
  set_kernel_path(KernelPath::kBlocked);
  gemm(Trans::N, Trans::T, -0.5, a, b, 1.0, c);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) ASSERT_NEAR(c(i, j), want(i, j), 1e-12);
  // Padding rows/cols of the parents must be untouched outside the view;
  // spot-check the first parent column below the view.
  EXPECT_EQ(pc(7 + m, 1), pc(7 + m, 1));  // no ASan/UBSan trip is the test
}

// ----------------------------------------------------- register tile ----

namespace {

// Number of elements of x and y whose bit patterns differ.
int bitwise_mismatches(ConstMatrixView x, ConstMatrixView y) {
  int bad = 0;
  for (int j = 0; j < x.cols(); ++j)
    for (int i = 0; i < x.rows(); ++i) {
      const double u = x(i, j), v = y(i, j);
      bad += std::memcmp(&u, &v, sizeof u) != 0;
    }
  return bad;
}

}  // namespace

// The engine's 8 x 6 and 16 x 12 register tiles only redraw blocking
// boundaries: each element of C is the same multiply-add sum over each KC
// block, so the two must agree bit for bit. Both instantiations run on any
// host (without AVX-512 the 16 x 12 tile compiles to generic vector code).
TEST(GemmTileShape, ResultsAreBitwiseIndependentOfTheRegisterTile) {
  namespace dd = ptlr::dense::detail;
  // m, n off the multiples of 16 and 12; k past one KC block and below
  // one A vector.
  const int cases[][3] = {{1, 1, 1},     {17, 13, 5},  {45, 31, 7},
                          {64, 64, 64},  {100, 70, 3}, {129, 131, 257},
                          {250, 23, 300}, {37, 260, 520}};
  const double alphas[] = {1.0, -0.75, 0.3};
  const dd::TriMask masks[] = {dd::TriMask::kNone, dd::TriMask::kLower,
                               dd::TriMask::kUpper};
  Rng rng(7);
  int combo = 0;
  for (const auto& sz : cases) {
    const int m = sz[0], n = sz[1], k = sz[2];
    for (const Trans ta : {Trans::N, Trans::T}) {
      for (const Trans tb : {Trans::N, Trans::T}) {
        for (const dd::TriMask mask : masks) {
          const double alpha = alphas[combo++ % 3];
          Matrix a(ta == Trans::N ? m : k, ta == Trans::N ? k : m);
          Matrix b(tb == Trans::N ? k : n, tb == Trans::N ? n : k);
          Matrix c0(m, n);
          fill_uniform(a.view(), rng);
          fill_uniform(b.view(), rng);
          fill_uniform(c0.view(), rng);
          Matrix narrow = c0, wide = c0;
          dd::gemm_blocked_tile<8, 6>(ta, tb, alpha, a.view(), b.view(),
                                      narrow.view(), mask);
          dd::gemm_blocked_tile<16, 12>(ta, tb, alpha, a.view(), b.view(),
                                        wide.view(), mask);
          EXPECT_EQ(bitwise_mismatches(narrow.view(), wide.view()), 0)
              << "m=" << m << " n=" << n << " k=" << k
              << " ta=" << (ta == Trans::N ? "N" : "T")
              << " tb=" << (tb == Trans::N ? "N" : "T")
              << " mask=" << static_cast<int>(mask) << " alpha=" << alpha;
          // The engine did write C (a masked call still covers the
          // diagonal).
          EXPECT_GT(bitwise_mismatches(narrow.view(), c0.view()), 0);
        }
      }
    }
  }
}

// A B operand packed once by the caller (the nested-GEMM parent) gives the
// bytes the engine would have packed itself, for either tile shape.
template <int MR, int NR>
void expect_prepacked_b_matches(Rng& rng) {
  namespace dd = ptlr::dense::detail;
  const int m = 77, n = 53;
  for (const int k : {5, 129, dd::kKC}) {
    for (const Trans ta : {Trans::N, Trans::T}) {
      for (const Trans tb : {Trans::N, Trans::T}) {
        Matrix a(ta == Trans::N ? m : k, ta == Trans::N ? k : m);
        Matrix b(tb == Trans::N ? k : n, tb == Trans::N ? n : k);
        Matrix own(m, n);
        fill_uniform(a.view(), rng);
        fill_uniform(b.view(), rng);
        fill_uniform(own.view(), rng);
        Matrix shared = own;
        std::vector<double> bp(static_cast<std::size_t>((n + NR - 1) / NR) *
                               NR * k);
        dd::pack_b<NR>(tb, b.view(), 0, 0, k, n, bp.data());
        dd::gemm_blocked_tile<MR, NR>(ta, tb, -1.5, a.view(), b.view(),
                                      own.view(), dd::TriMask::kNone);
        dd::gemm_blocked_tile<MR, NR>(ta, tb, -1.5, a.view(), b.view(),
                                      shared.view(), dd::TriMask::kNone,
                                      bp.data());
        EXPECT_EQ(bitwise_mismatches(own.view(), shared.view()), 0)
            << MR << "x" << NR << " k=" << k;
      }
    }
  }
}

TEST(GemmTileShape, PrepackedBMatchesSelfPackedB) {
  Rng rng(8);
  expect_prepacked_b_matches<8, 6>(rng);
  expect_prepacked_b_matches<16, 12>(rng);
}

// ----------------------------------------------- BLAS NaN/Inf semantics ----

// Reference BLAS computes 0 * NaN = NaN; the seed's `if (w == 0) continue`
// shortcuts silently swallowed non-finite operands. Both kernel paths must
// propagate them.
TEST(NanPropagation, GemmPropagatesNanThroughZeroWeight) {
  KernelPathGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const KernelPath path : {KernelPath::kUnblocked, KernelPath::kBlocked}) {
    set_kernel_path(path);
    Matrix a(5, 2), b(2, 3), c(5, 3);
    a.fill(1.0);
    a(2, 0) = nan;
    b.fill(0.0);     // B == 0, so every weight alpha*b is zero
    c.fill(7.0);
    gemm(Trans::N, Trans::N, 1.0, a.view(), b.view(), 1.0, c.view());
    for (int j = 0; j < 3; ++j)
      EXPECT_TRUE(std::isnan(c(2, j))) << "path did not propagate NaN";
    // Rows without NaN stay finite (0 contribution added).
    EXPECT_DOUBLE_EQ(c(0, 0), 7.0);
  }
}

TEST(NanPropagation, GemmInfTimesZeroIsNan) {
  KernelPathGuard guard;
  const double inf = std::numeric_limits<double>::infinity();
  for (const KernelPath path : {KernelPath::kUnblocked, KernelPath::kBlocked}) {
    set_kernel_path(path);
    Matrix a(4, 1), b(2, 1), c(4, 2);  // op(B) = B^T is 1 x 2
    a.fill(inf);
    b.fill(0.0);
    c.fill(0.0);
    gemm(Trans::N, Trans::T, 1.0, a.view(), b.view(), 0.0, c.view());
    for (int j = 0; j < 2; ++j)
      for (int i = 0; i < 4; ++i) EXPECT_TRUE(std::isnan(c(i, j)));
  }
}

TEST(NanPropagation, SyrkPropagatesNan) {
  KernelPathGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const KernelPath path : {KernelPath::kUnblocked, KernelPath::kBlocked}) {
    set_kernel_path(path);
    Matrix a(6, 2), c(6, 6);
    a.fill(0.0);          // row j weights are all zero
    a(4, 0) = nan;        // NaN in another row of the same column
    c.fill(1.0);
    syrk(Uplo::Lower, Trans::N, 1.0, a.view(), 1.0, c.view());
    // c(4, j) for j <= 4 accumulates a(4,p)*a(j,p) = NaN * 0 = NaN.
    for (int j = 0; j <= 4; ++j) EXPECT_TRUE(std::isnan(c(4, j)));
  }
}

TEST(NanPropagation, TrsmPropagatesNanThroughZeroOffdiagonal) {
  KernelPathGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const KernelPath path : {KernelPath::kUnblocked, KernelPath::kBlocked}) {
    set_kernel_path(path);
    Matrix a(2, 2);
    a(0, 0) = 1.0;
    a(1, 0) = 0.0;  // zero multiplier of the NaN column
    a(1, 1) = 1.0;
    Matrix b(3, 2);
    for (int i = 0; i < 3; ++i) {
      b(i, 0) = nan;
      b(i, 1) = 1.0;
    }
    // X * A^T = B forward-substitutes X(:,1) -= X(:,0) * a(1,0) = NaN * 0.
    trsm(Side::Right, Uplo::Lower, Trans::T, Diag::NonUnit, 1.0, a.view(),
         b.view());
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(std::isnan(b(i, 1)));
  }
}

// ------------------------------------- blocked-vs-reference equivalence ----

TEST(BlockedPath, SyrkMatchesUnblocked) {
  KernelPathGuard guard;
  Rng rng(61);
  for (const Trans ta : {Trans::N, Trans::T}) {
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      const int n = 150, k = 131;
      Matrix a(ta == Trans::N ? n : k, ta == Trans::N ? k : n);
      fill_uniform(a.view(), rng);
      Matrix c(n, n), cu(n, n);
      fill_uniform(c.view(), rng);
      cu = c;
      set_kernel_path(KernelPath::kBlocked);
      syrk(uplo, ta, -1.0, a.view(), 0.5, c.view());
      set_kernel_path(KernelPath::kUnblocked);
      syrk(uplo, ta, -1.0, a.view(), 0.5, cu.view());
      set_kernel_path(KernelPath::kAuto);
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
          ASSERT_NEAR(c(i, j), cu(i, j), 1e-11) << "uplo/ta mismatch";
    }
  }
}

TEST(BlockedPath, TrsmMatchesUnblockedAllVariants) {
  KernelPathGuard guard;
  Rng rng(62);
  const int m = 137, n = 75;
  for (const Side side : {Side::Left, Side::Right}) {
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
      for (const Trans ta : {Trans::N, Trans::T}) {
        for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
          const int na = side == Side::Left ? m : n;
          Matrix a(na, na);
          fill_uniform(a.view(), rng, 0.01, 0.5);
          for (int j = 0; j < na; ++j) a(j, j) = 2.0 + j * 0.01;
          Matrix b(m, n), bu(m, n);
          fill_uniform(b.view(), rng);
          bu = b;
          set_kernel_path(KernelPath::kBlocked);
          trsm(side, uplo, ta, diag, 1.5, a.view(), b.view());
          set_kernel_path(KernelPath::kUnblocked);
          trsm(side, uplo, ta, diag, 1.5, a.view(), bu.view());
          set_kernel_path(KernelPath::kAuto);
          const double scale = frob_norm(bu.view());
          EXPECT_LT(frob_diff(b.view(), bu.view()), 1e-10 * (1.0 + scale));
        }
      }
    }
  }
}

// Side::Right solves treat every row of B on its own, and the unblocked
// solver holds whole vectors of rows across its column sweep. Whatever
// the row count, the result must be bitwise the one a row-at-a-time
// solve (the plain substitution loops) gives.
TEST(BlockedPath, TrsmRightRowBlocksMatchRowAtATimeSolves) {
  KernelPathGuard guard;
  set_kernel_path(KernelPath::kUnblocked);
  Rng rng(64);
  const int n = 45;
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    for (const Trans ta : {Trans::N, Trans::T}) {
      for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
        Matrix a(n, n);
        fill_uniform(a.view(), rng, -0.5, 0.5);
        for (int j = 0; j < n; ++j) a(j, j) = 2.0 + j * 0.01;
        for (const int m : {1, 7, 8, 9, 31, 32, 33, 40, 71}) {
          Matrix whole(m, n);
          fill_uniform(whole.view(), rng);
          Matrix rows = whole;
          trsm(Side::Right, uplo, ta, diag, 1.5, a.view(), whole.view());
          for (int i = 0; i < m; ++i)
            trsm(Side::Right, uplo, ta, diag, 1.5, a.view(),
                 rows.view().block(i, 0, 1, n));
          EXPECT_EQ(bitwise_mismatches(whole.view(), rows.view()), 0)
              << "m=" << m << " uplo=" << static_cast<int>(uplo)
              << " ta=" << (ta == Trans::N ? "N" : "T")
              << " unit=" << (diag == Diag::Unit);
        }
      }
    }
  }
}

TEST(BlockedPath, PotrfMatchesUnblocked) {
  KernelPathGuard guard;
  Rng rng(63);
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper}) {
    const int n = 200;
    Matrix a = random_spd(n, rng);
    Matrix lb = a, lu = a;
    set_kernel_path(KernelPath::kBlocked);
    potrf(uplo, lb.view());
    set_kernel_path(KernelPath::kUnblocked);
    potrf(uplo, lu.view());
    set_kernel_path(KernelPath::kAuto);
    EXPECT_LT(frob_diff(lb.view(), lu.view()),
              1e-11 * (1.0 + frob_norm(lu.view())));
  }
}

TEST(BlockedPath, ChargesModelFlopsExactlyOnce) {
  KernelPathGuard guard;
  set_kernel_path(KernelPath::kBlocked);
  const int n = 160, k = 96;
  Rng rng(64);
  Matrix a(n, k), c(n, n);
  fill_uniform(a.view(), rng);
  ptlr::flops::Counter::reset();
  syrk(Uplo::Lower, Trans::N, 1.0, a.view(), 0.0, c.view());
  EXPECT_DOUBLE_EQ(ptlr::flops::Counter::total(),
                   static_cast<double>(n) * n * k);
  Matrix t(n, n);
  fill_uniform(t.view(), rng, 0.1, 1.0);
  for (int j = 0; j < n; ++j) t(j, j) = 3.0;
  Matrix b(n, 80);
  fill_uniform(b.view(), rng);
  ptlr::flops::Counter::reset();
  trsm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, 1.0, t.view(),
       b.view());
  EXPECT_DOUBLE_EQ(ptlr::flops::Counter::total(),
                   static_cast<double>(n) * n * 80);
  Matrix spd = random_spd(n, rng);
  ptlr::flops::Counter::reset();
  potrf(Uplo::Lower, spd.view());
  // The recursion subtracts then re-adds the TRSM/SYRK models through the
  // accumulating counter, so cancellation is exact only up to rounding.
  EXPECT_NEAR(ptlr::flops::Counter::total(),
              static_cast<double>(n) * n * n / 3.0, 1.0);
}

// ---------------------------------------------------------------- SYRK ----

TEST(Syrk, LowerNotransMatchesGemm) {
  Rng rng(5);
  Matrix a(9, 4), c(9, 9), cg(9, 9);
  fill_uniform(a.view(), rng);
  fill_uniform(c.view(), rng);
  symmetrize(Uplo::Lower, c.view());
  cg = c;
  syrk(Uplo::Lower, Trans::N, -1.0, a.view(), 1.0, c.view());
  gemm(Trans::N, Trans::T, -1.0, a.view(), a.view(), 1.0, cg.view());
  for (int j = 0; j < 9; ++j)
    for (int i = j; i < 9; ++i) EXPECT_NEAR(c(i, j), cg(i, j), 1e-13);
}

TEST(Syrk, UpperTransMatchesGemm) {
  Rng rng(6);
  Matrix a(4, 9), c(9, 9), cg(9, 9);
  fill_uniform(a.view(), rng);
  fill_uniform(c.view(), rng);
  symmetrize(Uplo::Upper, c.view());
  cg = c;
  syrk(Uplo::Upper, Trans::T, 2.0, a.view(), 0.5, c.view());
  gemm(Trans::T, Trans::N, 2.0, a.view(), a.view(), 0.5, cg.view());
  for (int j = 0; j < 9; ++j)
    for (int i = 0; i <= j; ++i) EXPECT_NEAR(c(i, j), cg(i, j), 1e-13);
}

TEST(Syrk, LeavesOppositeTriangleUntouched) {
  Rng rng(7);
  Matrix a(6, 3), c(6, 6);
  fill_uniform(a.view(), rng);
  c.fill(7.0);
  syrk(Uplo::Lower, Trans::N, 1.0, a.view(), 0.0, c.view());
  for (int j = 1; j < 6; ++j)
    for (int i = 0; i < j; ++i) EXPECT_DOUBLE_EQ(c(i, j), 7.0);
}

// ---------------------------------------------------------------- TRSM ----

struct TrsmCase {
  Side side;
  Uplo uplo;
  Trans trans;
  Diag diag;
};

class TrsmTest : public ::testing::TestWithParam<TrsmCase> {};

TEST_P(TrsmTest, SolvesSystem) {
  const auto p = GetParam();
  Rng rng(11);
  const int m = 11, n = 6;
  const int na = p.side == Side::Left ? m : n;
  Matrix a(na, na);
  fill_uniform(a.view(), rng, 0.1, 1.0);
  for (int j = 0; j < na; ++j) a(j, j) = p.diag == Diag::Unit ? 1.0 : 3.0 + j;
  // Zero the non-referenced triangle so the reference multiply is exact.
  zero_opposite_triangle(p.uplo, a.view());
  Matrix x(m, n);
  fill_uniform(x.view(), rng);
  // Build B = alpha^-1 * op(A)*X (left) or X*op(A) (right), then solve.
  Matrix bm(m, n);
  if (p.side == Side::Left)
    gemm(p.trans, Trans::N, 1.0, a.view(), x.view(), 0.0, bm.view());
  else
    gemm(Trans::N, p.trans, 1.0, x.view(), a.view(), 0.0, bm.view());
  trsm(p.side, p.uplo, p.trans, p.diag, 1.0, a.view(), bm.view());
  EXPECT_LT(frob_diff(bm.view(), x.view()), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsmTest,
    ::testing::Values(
        TrsmCase{Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit},
        TrsmCase{Side::Left, Uplo::Lower, Trans::T, Diag::NonUnit},
        TrsmCase{Side::Left, Uplo::Upper, Trans::N, Diag::NonUnit},
        TrsmCase{Side::Left, Uplo::Upper, Trans::T, Diag::NonUnit},
        TrsmCase{Side::Right, Uplo::Lower, Trans::N, Diag::NonUnit},
        TrsmCase{Side::Right, Uplo::Lower, Trans::T, Diag::NonUnit},
        TrsmCase{Side::Right, Uplo::Upper, Trans::N, Diag::NonUnit},
        TrsmCase{Side::Right, Uplo::Upper, Trans::T, Diag::NonUnit},
        TrsmCase{Side::Left, Uplo::Lower, Trans::N, Diag::Unit},
        TrsmCase{Side::Right, Uplo::Upper, Trans::T, Diag::Unit}));

TEST(Trsm, AppliesAlpha) {
  Matrix a = identity(3);
  Matrix bm(3, 2);
  bm.fill(1.0);
  trsm(Side::Left, Uplo::Lower, Trans::N, Diag::NonUnit, 5.0, a.view(),
       bm.view());
  EXPECT_DOUBLE_EQ(bm(2, 1), 5.0);
}

// --------------------------------------------------------------- POTRF ----

TEST(Potrf, FactorizesSpdLower) {
  Rng rng(21);
  for (int n : {1, 2, 17, 64, 130}) {
    Matrix a = random_spd(n, rng);
    Matrix l = a;
    potrf(Uplo::Lower, l.view());
    zero_opposite_triangle(Uplo::Lower, l.view());
    Matrix rec(n, n);
    gemm(Trans::N, Trans::T, 1.0, l.view(), l.view(), 0.0, rec.view());
    EXPECT_LT(frob_diff(rec.view(), a.view()), 1e-10 * frob_norm(a.view()))
        << "n=" << n;
  }
}

TEST(Potrf, FactorizesSpdUpper) {
  Rng rng(22);
  const int n = 70;
  Matrix a = random_spd(n, rng);
  Matrix u = a;
  potrf(Uplo::Upper, u.view());
  zero_opposite_triangle(Uplo::Upper, u.view());
  Matrix rec(n, n);
  gemm(Trans::T, Trans::N, 1.0, u.view(), u.view(), 0.0, rec.view());
  EXPECT_LT(frob_diff(rec.view(), a.view()), 1e-10 * frob_norm(a.view()));
}

TEST(Potrf, ThrowsOnIndefiniteWithPivotIndex) {
  Matrix a = identity(5);
  a(3, 3) = -1.0;
  try {
    potrf(Uplo::Lower, a.view());
    FAIL() << "expected NumericalError";
  } catch (const ptlr::NumericalError& e) {
    EXPECT_EQ(e.info(), 4);  // 1-based index of the failing pivot
  }
}

TEST(Potrf, ReportsGlobalPivotIndexPastFirstBlock) {
  // Indefinite entry beyond the recursion's first diagonal block: the
  // 1-based pivot index must be global, not block-local.
  Matrix a = identity(130);
  a(100, 100) = -1.0;
  try {
    potrf(Uplo::Lower, a.view());
    FAIL() << "expected NumericalError";
  } catch (const ptlr::NumericalError& e) {
    EXPECT_EQ(e.info(), 101);
  }
}

TEST(Potrf, RejectsNonSquare) {
  Matrix a(4, 5);
  EXPECT_THROW(potrf(Uplo::Lower, a.view()), ptlr::Error);
}

// ------------------------------------------------------------------ QR ----

TEST(Qr, ReconstructsTallMatrix) {
  Rng rng(31);
  const int m = 40, n = 12;
  Matrix a(m, n);
  fill_uniform(a.view(), rng);
  Matrix qr = a;
  std::vector<double> tau;
  geqrf(qr.view(), tau);
  // Extract R, then form Q and multiply back.
  Matrix r(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j; ++i) r(i, j) = qr(i, j);
  orgqr(qr.view(), tau, n);
  Matrix rec(m, n);
  gemm(Trans::N, Trans::N, 1.0, qr.view(), r.view(), 0.0, rec.view());
  EXPECT_LT(frob_diff(rec.view(), a.view()), 1e-12 * frob_norm(a.view()));
}

TEST(Qr, QHasOrthonormalColumns) {
  Rng rng(32);
  const int m = 33, n = 10;
  Matrix a(m, n);
  fill_uniform(a.view(), rng);
  std::vector<double> tau;
  geqrf(a.view(), tau);
  orgqr(a.view(), tau, n);
  Matrix qtq(n, n);
  gemm(Trans::T, Trans::N, 1.0, a.view(), a.view(), 0.0, qtq.view());
  EXPECT_LT(frob_diff(qtq.view(), identity(n).view()), 1e-12);
}

TEST(Qr, OrmqrAppliesQTranspose) {
  Rng rng(33);
  const int m = 25, n = 8, ncols = 5;
  Matrix a(m, n), c(m, ncols);
  fill_uniform(a.view(), rng);
  fill_uniform(c.view(), rng);
  Matrix qr = a;
  std::vector<double> tau;
  geqrf(qr.view(), tau);
  Matrix q = qr;
  orgqr(q.view(), tau, n);
  // Explicit Q^T * C (leading n rows) vs ormqr.
  Matrix want(n, ncols);
  gemm(Trans::T, Trans::N, 1.0, q.view(), c.view(), 0.0, want.view());
  Matrix got = c;
  ormqr(Trans::T, qr.view(), tau, got.view());
  EXPECT_LT(frob_diff(got.block(0, 0, n, ncols), want.view()), 1e-12);
}

TEST(Qr, Geqp3DetectsExactRank) {
  Rng rng(34);
  const int m = 50, n = 50, r = 7;
  Matrix a = random_lowrank(m, n, r, 1.0, rng);  // flat spectrum, exact rank
  auto piv = geqp3_trunc(a.view(), 1e-10, n);
  EXPECT_EQ(piv.rank, r);
}

TEST(Qr, Geqp3RespectsMaxRank) {
  Rng rng(35);
  Matrix a(30, 30);
  fill_uniform(a.view(), rng);
  auto piv = geqp3_trunc(a.view(), 0.0, 5);
  EXPECT_EQ(piv.rank, 5);
}

TEST(Qr, Geqp3ZeroMatrixHasRankZero) {
  Matrix a(20, 20);
  auto piv = geqp3_trunc(a.view(), 1e-14, 20);
  EXPECT_EQ(piv.rank, 0);
}

// ----------------------------------------------------------------- SVD ----

TEST(Svd, DiagonalMatrix) {
  Matrix a(4, 4);
  a(0, 0) = 3.0;
  a(1, 1) = -2.0;
  a(2, 2) = 1.0;
  a(3, 3) = 0.5;
  auto svd = jacobi_svd(a.view());
  ASSERT_EQ(svd.s.size(), 4u);
  EXPECT_NEAR(svd.s[0], 3.0, 1e-13);
  EXPECT_NEAR(svd.s[1], 2.0, 1e-13);
  EXPECT_NEAR(svd.s[2], 1.0, 1e-13);
  EXPECT_NEAR(svd.s[3], 0.5, 1e-13);
}

TEST(Svd, ReconstructsRandomMatrix) {
  Rng rng(41);
  const int m = 30, n = 13;
  Matrix a(m, n);
  fill_uniform(a.view(), rng);
  auto svd = jacobi_svd(a.view());
  // rec = U * diag(s) * V^T
  Matrix us = svd.u;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) us(i, j) *= svd.s[j];
  Matrix rec(m, n);
  gemm(Trans::N, Trans::T, 1.0, us.view(), svd.v.view(), 0.0, rec.view());
  EXPECT_LT(frob_diff(rec.view(), a.view()), 1e-11 * frob_norm(a.view()));
}

TEST(Svd, SingularValuesDescendAndMatchFrobenius) {
  Rng rng(42);
  Matrix a(20, 20);
  fill_uniform(a.view(), rng);
  auto s = singular_values(a.view());
  double sum2 = 0.0;
  for (std::size_t i = 0; i + 1 < s.size(); ++i) EXPECT_GE(s[i], s[i + 1]);
  for (double v : s) sum2 += v * v;
  const double f = frob_norm(a.view());
  EXPECT_NEAR(std::sqrt(sum2), f, 1e-10 * f);
}

TEST(Svd, WideMatrixViaTranspose) {
  Rng rng(43);
  Matrix a(5, 12);
  fill_uniform(a.view(), rng);
  auto s = singular_values(a.view());
  EXPECT_EQ(s.size(), 5u);
  EXPECT_GT(s[0], 0.0);
}

TEST(Svd, RankDeficientTailIsZero) {
  Rng rng(44);
  Matrix a = random_lowrank(25, 25, 4, 1.0, rng);
  auto s = singular_values(a.view());
  for (std::size_t i = 4; i < s.size(); ++i) EXPECT_LT(s[i], 1e-12);
}

// Battery over the shapes the compressors feed jacobi_svd: tall b-by-k
// (the QR-preconditioned path), square, a single column, an exactly zero
// column and rank-deficient input, each with a known spectrum.

namespace {

// A = U diag(s) V^T with U (m-by-r) and V (n-by-r) orthonormal Gaussian
// factors, r = s.size() <= n; the spectrum of A is s plus n - r zeros.
Matrix with_spectrum(int m, int n, const std::vector<double>& s, Rng& rng) {
  const int r = static_cast<int>(s.size());
  Matrix u(m, r), v(n, r);
  fill_gaussian(u.view(), rng);
  fill_gaussian(v.view(), rng);
  std::vector<double> tau;
  geqrf(u.view(), tau);
  orgqr(u.view(), tau, r);
  geqrf(v.view(), tau);
  orgqr(v.view(), tau, r);
  for (int j = 0; j < r; ++j) scal(m, s[j], u.view().col(j));
  Matrix a(m, n);
  gemm(Trans::N, Trans::T, 1.0, u.view(), v.view(), 0.0, a.view());
  return a;
}

// Geometric spectrum of length r graded from 1 down to smin.
std::vector<double> graded(int r, double smin) {
  std::vector<double> s(r, 1.0);
  for (int j = 1; j < r; ++j) s[j] = std::pow(smin, double(j) / (r - 1));
  return s;
}

// max |X(:, cols)^T X(:, cols) - I| over the leading `cols` columns.
double orthonormality_error(const Matrix& x, int cols) {
  double err = 0.0;
  for (int j = 0; j < cols; ++j)
    for (int i = 0; i < cols; ++i) {
      const double g = dot(x.rows(), x.view().col(i), x.view().col(j));
      err = std::max(err, std::abs(g - (i == j ? 1.0 : 0.0)));
    }
  return err;
}

// Checks the SVD of a against the known spectrum s (zero-padded to n):
// every sigma to O(n eps ||A||), U orthonormal on its nonzero singular
// values, V orthogonal, and the reconstruction.
void expect_svd_matches(const Matrix& a, std::vector<double> s) {
  const int m = a.rows(), n = a.cols();
  const double eps = std::numeric_limits<double>::epsilon();
  const double tol = 10.0 * n * eps;
  s.resize(n, 0.0);
  const Svd svd = jacobi_svd(a.view());
  ASSERT_EQ(svd.s.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(svd.u.rows(), m);
  ASSERT_EQ(svd.v.rows(), n);
  for (int j = 0; j < n; ++j) EXPECT_NEAR(svd.s[j], s[j], tol * s[0]) << j;
  int nonzero = 0;
  while (nonzero < n && svd.s[nonzero] > 0.0) ++nonzero;
  EXPECT_LT(orthonormality_error(svd.u, nonzero), tol);
  EXPECT_LT(orthonormality_error(svd.v, n), tol);
  Matrix us = svd.u;
  for (int j = 0; j < n; ++j) scal(m, svd.s[j], us.view().col(j));
  Matrix rec(m, n);
  gemm(Trans::N, Trans::T, 1.0, us.view(), svd.v.view(), 0.0, rec.view());
  EXPECT_LT(frob_diff(rec.view(), a.view()), tol * s[0]);
}

}  // namespace

TEST(SvdBattery, TallGradedSpectrum) {
  Rng rng(61);
  for (const int k : {16, 64, 128}) {
    SCOPED_TRACE(k);
    const auto s = graded(k, 1e-14);
    expect_svd_matches(with_spectrum(256, k, s, rng), s);
  }
}

TEST(SvdBattery, SquareGradedSpectrum) {
  Rng rng(62);
  const auto s = graded(48, 1e-14);
  expect_svd_matches(with_spectrum(48, 48, s, rng), s);
}

TEST(SvdBattery, SingleColumn) {
  Rng rng(63);
  for (const int m : {1, 7, 256}) {
    SCOPED_TRACE(m);
    expect_svd_matches(with_spectrum(m, 1, {2.5}, rng), {2.5});
  }
}

TEST(SvdBattery, ZeroColumn) {
  Rng rng(64);
  for (const int m : {40, 256}) {
    SCOPED_TRACE(m);
    // A zero column inserted into a 19-column matrix of known spectrum:
    // the spectrum gains an exact zero, which must stay exact.
    const auto s = graded(19, 1e-6);
    const Matrix rest = with_spectrum(m, 19, s, rng);
    Matrix a(m, 20);
    copy(rest.block(0, 0, m, 7), a.block(0, 0, m, 7));
    copy(rest.block(0, 7, m, 12), a.block(0, 8, m, 12));
    EXPECT_EQ(jacobi_svd(a.view()).s[19], 0.0);
    expect_svd_matches(a, s);
  }
}

TEST(SvdBattery, RankDeficientTruncatesToConstructedRank) {
  Rng rng(65);
  for (const auto& [m, n, r] : {std::tuple{256, 64, 20},
                                std::tuple{256, 128, 50},
                                std::tuple{64, 64, 30}}) {
    SCOPED_TRACE(testing::Message() << m << "x" << n << " rank " << r);
    const auto s = graded(r, 1e-3);
    const Matrix a = with_spectrum(m, n, s, rng);
    expect_svd_matches(a, s);
    const Svd svd = jacobi_svd(a.view());
    for (const double tol : {1e-6, 1e-8, 1e-10})
      EXPECT_EQ(ptlr::compress::truncation_rank(svd.s, tol), r) << tol;
  }
}

TEST(SvdBattery, GradedTruncationRankMatchesExactSpectrum) {
  Rng rng(66);
  const auto s = graded(96, 1e-14);
  const Svd svd = jacobi_svd(with_spectrum(256, 96, s, rng).view());
  for (const double tol : {1e-4, 1e-6, 1e-8, 1e-10})
    EXPECT_EQ(ptlr::compress::truncation_rank(svd.s, tol),
              ptlr::compress::truncation_rank(s, tol))
        << tol;
}

// ----------------------------------------------------------------- dot ----

TEST(Dot, ExactOnIntegersForEveryTailLength) {
  // Integer products and partial sums stay far below 2^53, so every
  // summation order gives the exact value: this checks that each of the
  // eight lanes and every tail length 0..33 is counted exactly once.
  for (int n = 0; n <= 33; ++n) {
    std::vector<double> x(n), y(n);
    long long want = 0;
    for (int i = 0; i < n; ++i) {
      x[i] = i + 1;
      y[i] = (i % 7) - 3;
      want += static_cast<long long>(i + 1) * ((i % 7) - 3);
    }
    EXPECT_EQ(dot(n, x.data(), y.data()), static_cast<double>(want)) << n;
  }
}

TEST(Dot, IndependentOfSubviewAlignment) {
  // The same values at every offset of a buffer: element i always lands in
  // lane i % 8, so the rounded result is bitwise the same.
  Rng rng(67);
  for (const int n : {5, 8, 13, 33, 200}) {
    std::vector<double> xv(n), yv(n);
    for (int i = 0; i < n; ++i) {
      xv[i] = rng.uniform(-1.0, 1.0);
      yv[i] = rng.uniform(-1.0, 1.0);
    }
    const double want = dot(n, xv.data(), yv.data());
    for (int off = 0; off < 8; ++off) {
      Matrix buf(n + 8, 2);
      std::copy(xv.begin(), xv.end(), buf.view().col(0) + off);
      std::copy(yv.begin(), yv.end(), buf.view().col(1) + 7 - off);
      EXPECT_EQ(dot(n, buf.view().col(0) + off, buf.view().col(1) + 7 - off),
                want)
          << "n=" << n << " offset=" << off;
    }
  }
}

// ------------------------------------------------------------- utility ----

TEST(Util, RandomLowRankHasRequestedSpectrum) {
  Rng rng(51);
  Matrix a = random_lowrank(40, 30, 10, 1e-4, rng);
  auto s = singular_values(a.view());
  EXPECT_NEAR(s[0], 1.0, 1e-10);
  EXPECT_NEAR(s[9], 1e-4, 1e-10);
}

TEST(Util, SymmetrizeMirrors) {
  Matrix a(3, 3);
  a(1, 0) = 5.0;
  a(2, 1) = -2.0;
  symmetrize(Uplo::Lower, a.view());
  EXPECT_DOUBLE_EQ(a(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(a(1, 2), -2.0);
}

TEST(Util, BlockViewsAliasParent) {
  Matrix a(6, 6);
  auto blk = a.block(2, 3, 2, 2);
  blk(0, 0) = 9.0;
  EXPECT_DOUBLE_EQ(a(2, 3), 9.0);
}

TEST(Util, Nrm2HandlesExtremeValues) {
  std::vector<double> big(3, 1e200);
  EXPECT_NEAR(nrm2(3, big.data()) / (1e200 * std::sqrt(3.0)), 1.0, 1e-12);
  std::vector<double> tiny(4, 1e-200);
  EXPECT_NEAR(nrm2(4, tiny.data()) / (1e-200 * 2.0), 1.0, 1e-12);
}
