// Unit tests for ptlr::compress — ε-truncated compression & recompression.
#include <gtest/gtest.h>

#include <cmath>

#include "compress/compress.hpp"
#include "dense/blas.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"
#include "stars/problem.hpp"

using namespace ptlr::compress;
using namespace ptlr::dense;
using ptlr::Rng;

TEST(Compress, ExactLowRankIsRecoveredExactly) {
  Rng rng(1);
  Matrix a = random_lowrank(60, 40, 8, 1.0, rng);
  auto f = compress(a.view(), {1e-10, 1 << 30});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->rank(), 8);
  EXPECT_LT(approximation_error(a.view(), *f), 1e-9);
}

TEST(Compress, MeetsFrobeniusThreshold) {
  Rng rng(2);
  for (double tol : {1e-3, 1e-6, 1e-9}) {
    Matrix a = random_lowrank(50, 50, 25, 1e-12, rng);
    auto f = compress(a.view(), {tol, 1 << 30});
    ASSERT_TRUE(f.has_value());
    EXPECT_LE(approximation_error(a.view(), *f), tol * (1 + 1e-6))
        << "tol=" << tol;
  }
}

TEST(Compress, TighterToleranceGivesHigherRank) {
  Rng rng(3);
  Matrix a = random_lowrank(64, 64, 32, 1e-12, rng);
  const int r9 = compress(a.view(), {1e-9, 1 << 30})->rank();
  const int r5 = compress(a.view(), {1e-5, 1 << 30})->rank();
  const int r2 = compress(a.view(), {1e-2, 1 << 30})->rank();
  EXPECT_GT(r9, r5);
  EXPECT_GT(r5, r2);
}

TEST(Compress, FailsWhenRankExceedsMaxrank) {
  Rng rng(4);
  Matrix a(40, 40);
  fill_uniform(a.view(), rng);  // full rank, incompressible at 1e-10
  auto f = compress(a.view(), {1e-10, 10});
  EXPECT_FALSE(f.has_value());
}

TEST(Compress, ZeroMatrixHasRankZero) {
  Matrix a(30, 20);
  auto f = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->rank(), 0);
  Matrix rec = f->to_dense();
  EXPECT_DOUBLE_EQ(frob_norm(rec.view()), 0.0);
}

TEST(Compress, RectangularBlocksBothOrientations) {
  Rng rng(5);
  for (auto [m, n] : {std::pair{60, 25}, std::pair{25, 60}}) {
    Matrix a = random_lowrank(m, n, 6, 1.0, rng);
    auto f = compress(a.view(), {1e-10, 1 << 30});
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->rank(), 6);
    EXPECT_EQ(f->rows(), m);
    EXPECT_EQ(f->cols(), n);
    EXPECT_LT(approximation_error(a.view(), *f), 1e-9);
  }
}

TEST(Compress, CovarianceTileRoundTripAtScaledAccuracy) {
  // End-to-end on a real st-3D-exp tile. At laptop scale the ε matching
  // the paper's rank ratios is looser than its 1e-8 (the ε-rank of a
  // kernel block depends on geometry, not tile size — Fig. 2b).
  auto prob = ptlr::stars::make_problem(ptlr::stars::ProblemKind::kSt3DExp,
                                        512, 21);
  auto tile = prob.block(384, 0, 128, 128);
  auto f = compress(tile.view(), {1e-4, 64});
  ASSERT_TRUE(f.has_value());
  EXPECT_GT(f->rank(), 0);
  EXPECT_LT(f->rank(), 64);
  EXPECT_LE(approximation_error(tile.view(), *f), 1e-4 * (1 + 1e-6));
}

TEST(Compress, NumericalRankMatchesSpectrum) {
  Rng rng(6);
  Matrix a = random_lowrank(48, 48, 12, 1.0, rng);
  EXPECT_EQ(numerical_rank(a.view(), {1e-9, 1 << 30}), 12);
}

// ---------------------------------------------------------- recompress ----

TEST(Recompress, ReducesInflatedRank) {
  Rng rng(7);
  // Build a rank-5 matrix represented with rank 20 (padded factors).
  Matrix a = random_lowrank(40, 40, 5, 1.0, rng);
  auto exact = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(exact);
  // Inflate: U' = [U, U], V' = [V/2, V/2] represents the same matrix.
  const int k = exact->rank();
  Matrix u2(40, 2 * k), v2(40, 2 * k);
  for (int j = 0; j < k; ++j)
    for (int i = 0; i < 40; ++i) {
      u2(i, j) = exact->u(i, j);
      u2(i, j + k) = exact->u(i, j);
      v2(i, j) = exact->v(i, j) * 0.5;
      v2(i, j + k) = exact->v(i, j) * 0.5;
    }
  LowRankFactor inflated{std::move(u2), std::move(v2)};
  const int knew = recompress(inflated, {1e-10, 1 << 30});
  EXPECT_EQ(knew, k);
  EXPECT_LT(approximation_error(a.view(), inflated), 1e-9);
}

TEST(Recompress, NoReductionKeepsFactorIntact) {
  Rng rng(8);
  Matrix a = random_lowrank(30, 30, 10, 1.0, rng);
  auto f = compress(a.view(), {1e-10, 1 << 30});
  ASSERT_TRUE(f);
  const int k = recompress(*f, {1e-12, 1 << 30});
  EXPECT_EQ(k, 10);
  EXPECT_LT(approximation_error(a.view(), *f), 1e-9);
}

TEST(Recompress, RespectsLooserTolerance) {
  Rng rng(9);
  Matrix a = random_lowrank(50, 50, 25, 1e-10, rng);  // decaying spectrum
  auto f = compress(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(f);
  const int k_before = f->rank();
  const int k_after = recompress(*f, {1e-3, 1 << 30});
  EXPECT_LT(k_after, k_before);
  EXPECT_LE(approximation_error(a.view(), *f), 1e-3 * (1 + 1e-6));
}

TEST(Recompress, RankZeroIsStable) {
  LowRankFactor f{Matrix(20, 0), Matrix(20, 0)};
  EXPECT_EQ(recompress(f, {1e-8, 1 << 30}), 0);
}

TEST(LowRankFactor, ElementCountTracksRank) {
  LowRankFactor f{Matrix(100, 7), Matrix(100, 7)};
  EXPECT_EQ(f.elements(), 2u * 100u * 7u);
}

TEST(LowRankFactor, RankMismatchThrows) {
  EXPECT_THROW((LowRankFactor{Matrix(10, 3), Matrix(10, 4)}), ptlr::Error);
}

// ------------------------------------------------- property-style sweep ----

class CompressSweep : public ::testing::TestWithParam<int> {};

TEST_P(CompressSweep, ErrorAlwaysWithinTolerance) {
  const int seed = GetParam();
  Rng rng(seed);
  const int m = 30 + seed * 3, n = 30 + ((seed * 7) % 20);
  const int r = 3 + seed % 12;
  Matrix a = random_lowrank(m, n, std::min({r, m, n}), 1e-10, rng);
  const double tol = 1e-7;
  auto f = compress(a.view(), {tol, 1 << 30});
  ASSERT_TRUE(f);
  EXPECT_LE(approximation_error(a.view(), *f), tol * (1 + 1e-6));
  // Recompression keeps the same contract against the factor it rounds.
  // Against `a` the two roundings compound, up to 2·tol by the triangle
  // inequality: a singular value of f just below tol (kept by compress,
  // whose QR tail spent part of the budget) may be dropped by recompress.
  auto g = *f;
  recompress(g, {tol, 1 << 30});
  const Matrix fd = f->to_dense();
  EXPECT_LE(approximation_error(fd.view(), g), tol * (1 + 1e-6));
  EXPECT_LE(approximation_error(a.view(), g), tol * 2);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CompressSweep,
                         ::testing::Range(1, 13));

// ------------------------------------------- alternative backends ----

#include "compress/methods.hpp"

TEST(Rsvd, RecoversExactLowRank) {
  Rng rng(21);
  Matrix a = random_lowrank(80, 60, 9, 1.0, rng);
  Rng mrng(1);
  auto f = compress_rsvd(a.view(), {1e-9, 1 << 30}, mrng);
  ASSERT_TRUE(f);
  EXPECT_EQ(f->rank(), 9);
  EXPECT_LT(approximation_error(a.view(), *f), 1e-8);
}

TEST(Rsvd, MeetsToleranceOnDecayingSpectrum) {
  Rng rng(22);
  Matrix a = random_lowrank(64, 64, 32, 1e-10, rng);
  for (double tol : {1e-3, 1e-6}) {
    Rng mrng(2);
    auto f = compress_rsvd(a.view(), {tol, 1 << 30}, mrng);
    ASSERT_TRUE(f);
    // RSVD error can exceed the truncation target by the sketch slack.
    EXPECT_LE(approximation_error(a.view(), *f), tol * 5) << tol;
  }
}

TEST(Rsvd, FailsOnIncompressibleBlock) {
  Rng rng(23);
  Matrix a(40, 40);
  fill_uniform(a.view(), rng);
  Rng mrng(3);
  auto f = compress_rsvd(a.view(), {1e-12, 8}, mrng);
  EXPECT_FALSE(f.has_value());
}

TEST(Rsvd, PowerIterationsImproveAccuracyAtFixedRank) {
  Rng rng(24);
  // Slowly decaying spectrum: the hard case for sketching.
  Matrix a = random_lowrank(96, 96, 48, 1e-3, rng);
  Rng r1(7), r2(7);
  auto f0 = compress_rsvd(a.view(), {1e-2, 12}, r1, 2, 0);
  auto f2 = compress_rsvd(a.view(), {1e-2, 12}, r2, 2, 2);
  if (f0 && f2) {
    EXPECT_LE(approximation_error(a.view(), *f2),
              approximation_error(a.view(), *f0) * 1.5);
  }
}

TEST(Aca, RecoversExactLowRank) {
  Rng rng(25);
  Matrix a = random_lowrank(70, 50, 7, 1.0, rng);
  auto f = compress_aca(a.view(), {1e-9, 1 << 30});
  ASSERT_TRUE(f);
  EXPECT_EQ(f->rank(), 7);
  EXPECT_LT(approximation_error(a.view(), *f), 1e-7);
}

TEST(Aca, OracleNeverMaterializesTheBlock) {
  // Compress a kernel block straight from the entry oracle.
  auto prob = ptlr::stars::make_st3d_matern(512, 1.0, 0.5, 0.5, 31);
  const int r0 = 384, c0 = 0, m = 128, n = 128;
  long long evals = 0;
  auto f = compress_aca_oracle(
      m, n,
      [&](int i, int j) {
        ++evals;
        return prob.entry(r0 + i, c0 + j);
      },
      {1e-4, 64});
  ASSERT_TRUE(f);
  auto exact = prob.block(r0, c0, m, n);
  EXPECT_LE(approximation_error(exact.view(), *f), 1e-3);
  // Far fewer evaluations than the m*n of full materialization + SVD.
  EXPECT_LT(evals, static_cast<long long>(m) * n);
}

TEST(Aca, ZeroBlockGivesRankZero) {
  Matrix a(20, 30);
  auto f = compress_aca(a.view(), {1e-12, 1 << 30});
  ASSERT_TRUE(f);
  EXPECT_EQ(f->rank(), 0);
}

TEST(Aca, RespectsRankCap) {
  Rng rng(26);
  Matrix a(40, 40);
  fill_uniform(a.view(), rng);
  auto f = compress_aca(a.view(), {1e-12, 6});
  EXPECT_FALSE(f.has_value());
}

class MethodSweep
    : public ::testing::TestWithParam<ptlr::compress::Method> {};

TEST_P(MethodSweep, AllBackendsMeetLooseToleranceOnCovarianceTile) {
  auto prob = ptlr::stars::make_st3d_matern(512, 1.0, 0.5, 0.5, 37);
  auto tile = prob.block(384, 0, 128, 128);
  Rng mrng(11);
  auto f = compress_with(GetParam(), tile.view(), {1e-3, 96}, mrng);
  ASSERT_TRUE(f) << to_string(GetParam());
  EXPECT_LE(approximation_error(tile.view(), *f), 1e-2)
      << to_string(GetParam());
  EXPECT_LT(f->rank(), 96);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, MethodSweep,
    ::testing::Values(ptlr::compress::Method::kCpqrSvd,
                      ptlr::compress::Method::kRsvd,
                      ptlr::compress::Method::kAca,
                      ptlr::compress::Method::kAdaptiveRsvd));

TEST(Methods, NamesAreStable) {
  EXPECT_STREQ(to_string(ptlr::compress::Method::kCpqrSvd), "CPQR+SVD");
  EXPECT_STREQ(to_string(ptlr::compress::Method::kRsvd), "RSVD");
  EXPECT_STREQ(to_string(ptlr::compress::Method::kAca), "ACA");
  EXPECT_STREQ(to_string(ptlr::compress::Method::kAdaptiveRsvd),
               "ADAPTIVE-RSVD");
}
