// Unit tests for ptlr::stars — Bessel K, Matérn kernels, geometries,
// covariance problem generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "dense/lapack.hpp"
#include "dense/util.hpp"
#include "stars/besselk.hpp"
#include "stars/geometry.hpp"
#include "stars/kernels.hpp"
#include "stars/problem.hpp"

using namespace ptlr::stars;
using ptlr::Rng;

namespace {

double k_half(double nu_offset, double x) {
  // Closed forms: K_{1/2}(x) = sqrt(pi/(2x)) e^{-x};
  // K_{3/2} = K_{1/2} (1 + 1/x); K_{5/2} = K_{1/2} (1 + 3/x + 3/x^2).
  const double base = std::sqrt(M_PI / (2.0 * x)) * std::exp(-x);
  if (nu_offset == 0) return base;
  if (nu_offset == 1) return base * (1.0 + 1.0 / x);
  return base * (1.0 + 3.0 / x + 3.0 / (x * x));
}

}  // namespace

// ------------------------------------------------------------- BesselK ----

class BesselHalfInteger
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BesselHalfInteger, MatchesClosedForm) {
  const int off = std::get<0>(GetParam());
  const double x = std::get<1>(GetParam());
  const double nu = 0.5 + off;
  const double want = k_half(off, x);
  EXPECT_NEAR(bessel_k(nu, x) / want, 1.0, 1e-12)
      << "nu=" << nu << " x=" << x;
}

INSTANTIATE_TEST_SUITE_P(
    SmallAndLargeArguments, BesselHalfInteger,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.01, 0.1, 0.5, 1.0, 1.9, 2.0, 2.1,
                                         5.0, 10.0, 50.0)));

TEST(BesselK, IntegerOrderReferenceValues) {
  // Reference values (Abramowitz & Stegun / mpmath, 15 digits).
  EXPECT_NEAR(bessel_k(0.0, 1.0), 0.421024438240708, 1e-12);
  EXPECT_NEAR(bessel_k(1.0, 1.0), 0.601907230197235, 1e-12);
  EXPECT_NEAR(bessel_k(0.0, 0.1), 2.427069024702017, 1e-12);
  EXPECT_NEAR(bessel_k(1.0, 5.0), 0.00404461344545216, 1e-14);
  EXPECT_NEAR(bessel_k(2.0, 3.0), 0.0615104584717420, 1e-13);
}

TEST(BesselK, RecurrenceHolds) {
  // K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x).
  for (double nu : {0.3, 0.7, 1.2, 2.6}) {
    for (double x : {0.4, 1.7, 3.3, 8.0}) {
      const double lhs = bessel_k(nu + 1.0, x);
      const double rhs = bessel_k(nu - 1.0 < 0 ? std::abs(nu - 1.0) : nu - 1.0, x) +
                         2.0 * nu / x * bessel_k(nu, x);
      EXPECT_NEAR(lhs / rhs, 1.0, 1e-10) << "nu=" << nu << " x=" << x;
    }
  }
}

TEST(BesselK, ScaledVariantAvoidsUnderflow) {
  // K_nu(800) underflows, exp(x) K_nu(x) must not.
  const double v = bessel_k_scaled(0.5, 800.0);
  EXPECT_NEAR(v, std::sqrt(M_PI / 1600.0), 1e-12);
  EXPECT_GT(v, 0.0);
}

TEST(BesselK, InvalidArgumentsThrow) {
  EXPECT_THROW(bessel_k(0.5, 0.0), ptlr::Error);
  EXPECT_THROW(bessel_k(0.5, -1.0), ptlr::Error);
  EXPECT_THROW(bessel_k(-0.5, 1.0), ptlr::Error);
}

// -------------------------------------------------------------- Matérn ----

TEST(Matern, HalfSmoothnessIsExponential) {
  // Section IV: θ = (1, 0.1, 0.5) reduces to C(r) = exp(-r/0.1).
  Matern m(1.0, 0.1, 0.5);
  Exponential e(1.0, 0.1);
  for (double r : {0.0, 0.01, 0.05, 0.2, 0.9, 2.0}) {
    EXPECT_NEAR(m(r), e(r), 1e-14) << "r=" << r;
  }
}

TEST(Matern, GenericSmoothnessMatchesClosedForm32) {
  Matern generic(2.0, 0.3, 1.5);
  for (double r : {0.01, 0.1, 0.5, 1.0}) {
    const double s = r / 0.3;
    const double want = 2.0 * (1.0 + s) * std::exp(-s);
    EXPECT_NEAR(generic(r), want, 1e-12);
  }
}

TEST(Matern, GenericOrderViaBessel) {
  // nu = 1.0 has no closed form; sanity: positive, decreasing, C(0)=theta1.
  Matern m(1.0, 0.1, 1.0);
  EXPECT_DOUBLE_EQ(m(0.0), 1.0);
  double prev = m(1e-6);
  EXPECT_NEAR(prev, 1.0, 1e-3);
  for (double r = 0.02; r < 1.0; r += 0.02) {
    const double v = m(r);
    EXPECT_LT(v, prev);
    EXPECT_GT(v, 0.0);
    prev = v;
  }
}

TEST(Matern, RejectsNonPositiveParameters) {
  EXPECT_THROW(Matern(0.0, 0.1, 0.5), ptlr::Error);
  EXPECT_THROW(Matern(1.0, -0.1, 0.5), ptlr::Error);
  EXPECT_THROW(Matern(1.0, 0.1, 0.0), ptlr::Error);
}

TEST(Kernels, SquaredExponentialDecaysFasterThanExponential) {
  Exponential e(1.0, 0.1);
  SquaredExponential q(1.0, 0.1);
  EXPECT_LT(q(0.5), e(0.5));
  EXPECT_DOUBLE_EQ(q(0.0), 1.0);
}

// ------------------------------------------------------------ Geometry ----

TEST(Geometry, Grid3dProducesRequestedCount) {
  Rng rng(1);
  for (int n : {1, 7, 100, 1000}) {
    EXPECT_EQ(static_cast<int>(grid3d(n, rng).size()), n);
  }
}

TEST(Geometry, Grid2dPointsInUnitSquare) {
  Rng rng(2);
  for (const auto& p : grid2d(500, rng)) {
    EXPECT_GE(p.x, -0.05);
    EXPECT_LE(p.x, 1.05);
    EXPECT_GE(p.y, -0.05);
    EXPECT_LE(p.y, 1.05);
    EXPECT_DOUBLE_EQ(p.z, 0.0);
  }
}

TEST(Geometry, MortonSortImprovesIndexLocality) {
  // Mean distance between consecutive points should be far below the mean
  // distance between random pairs after a Morton sort.
  Rng rng(3);
  auto pts = uniform_cloud(2000, 3, rng);
  double consecutive = 0.0;
  for (std::size_t i = 0; i + 1 < pts.size(); ++i)
    consecutive += distance(pts[i], pts[i + 1]);
  consecutive /= static_cast<double>(pts.size() - 1);
  double random_pairs = 0.0;
  for (int t = 0; t < 2000; ++t) {
    const auto a = static_cast<std::size_t>(rng.integer(0, 1999));
    const auto b = static_cast<std::size_t>(rng.integer(0, 1999));
    random_pairs += distance(pts[a], pts[b]);
  }
  random_pairs /= 2000.0;
  EXPECT_LT(consecutive, 0.3 * random_pairs);
}

TEST(Geometry, MortonSortEqualsStableSortByKey) {
  // Clouds with forced duplicate keys: every third point gets a neighbour
  // closer than one quantization step (same key, different coordinates),
  // so the order among equal keys is visible and must be the stable one.
  for (int dim : {2, 3}) {
    Rng rng(static_cast<std::uint64_t>(40 + dim));
    std::vector<Point> pts;
    for (int i = 0; i < 600; ++i) {
      Point p{rng.uniform(), rng.uniform(), dim == 3 ? rng.uniform() : 0.0};
      pts.push_back(p);
      if (i % 3 == 0) {
        Point q = p;
        q.x += 1e-9 * (i + 1);
        pts.push_back(q);
      }
      if (i % 7 == 0) pts.push_back(p);
    }
    auto expected = pts;
    std::stable_sort(expected.begin(), expected.end(),
                     [dim](const Point& a, const Point& b) {
                       return morton_key(a, dim) < morton_key(b, dim);
                     });
    int ties = 0;
    for (std::size_t i = 0; i + 1 < expected.size(); ++i)
      ties += morton_key(expected[i], dim) == morton_key(expected[i + 1], dim);
    EXPECT_GT(ties, 200) << "dim " << dim;
    morton_sort(pts, dim);
    ASSERT_EQ(pts.size(), expected.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(pts[i].x, expected[i].x) << "dim " << dim << " at " << i;
      EXPECT_EQ(pts[i].y, expected[i].y) << "dim " << dim << " at " << i;
      EXPECT_EQ(pts[i].z, expected[i].z) << "dim " << dim << " at " << i;
    }
  }
}

TEST(Geometry, DistanceIsEuclidean) {
  Point a{0, 0, 0}, b{3, 4, 0};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  Point c{1, 2, 2};
  EXPECT_DOUBLE_EQ(distance(a, c), 3.0);
}

// ------------------------------------------------------------- Problem ----

TEST(Problem, MatrixIsSymmetricWithNuggetOnDiagonal) {
  auto prob = make_problem(ProblemKind::kSt3DExp, 64, 7, 0.01);
  for (int i = 0; i < 64; i += 13)
    for (int j = 0; j < 64; j += 7) {
      EXPECT_DOUBLE_EQ(prob.entry(i, j), prob.entry(j, i));
    }
  EXPECT_DOUBLE_EQ(prob.entry(5, 5), 1.0 + 0.01);
}

TEST(Problem, BlockMatchesEntries) {
  auto prob = make_problem(ProblemKind::kSt3DExp, 50, 9);
  auto blk = prob.block(10, 20, 8, 6);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 8; ++i)
      EXPECT_DOUBLE_EQ(blk(i, j), prob.entry(10 + i, 20 + j));
}

TEST(Problem, DenseOperatorIsSpd) {
  auto prob = make_problem(ProblemKind::kSt3DExp, 96, 11);
  auto a = prob.block(0, 0, 96, 96);
  EXPECT_NO_THROW(ptlr::dense::potrf(ptlr::dense::Uplo::Lower, a.view()));
}

TEST(Problem, OffDiagonalBlocksAreDataSparse) {
  // The premise of the whole paper: far-off-diagonal blocks of the Morton-
  // ordered covariance have low numerical rank. At laptop scale (few
  // hundred points) the ε-rank of the kernel block is set by the geometry,
  // not the tile size, so we use a correlation length proportionate to the
  // resolved scale; the paper's 0.1 corresponds to millions of locations.
  const int n = 256, b = 64;
  auto prob = make_st3d_matern(n, 1.0, 0.5, 0.5, 13);
  auto far_block = prob.block(n - b, 0, b, b);
  auto s = ptlr::dense::singular_values(far_block.view());
  int rank = 0;
  double tail2 = 0.0;
  for (int i = b - 1; i >= 0; --i) tail2 += s[i] * s[i];
  double run = 0.0;
  for (int i = b - 1; i >= 0; --i) {
    run += s[i] * s[i];
    if (std::sqrt(run) > 1e-3) {
      rank = i + 1;
      break;
    }
  }
  (void)tail2;
  EXPECT_LT(rank, b / 2) << "far block should be numerically low-rank";
}

TEST(Problem, SmootherKernelsHaveLowerRank) {
  const int n = 216, b = 54;
  auto rough = make_problem(ProblemKind::kSt3DExp, n, 17);
  auto smooth = make_problem(ProblemKind::kSt3DSqExp, n, 17);
  auto blk_r = rough.block(n - b, 0, b, b);
  auto blk_s = smooth.block(n - b, 0, b, b);
  auto sr = ptlr::dense::singular_values(blk_r.view());
  auto ss = ptlr::dense::singular_values(blk_s.view());
  // Compare the decay via the index where sigma falls below 1e-8*sigma0.
  auto decay_rank = [](const std::vector<double>& s) {
    for (std::size_t i = 0; i < s.size(); ++i)
      if (s[i] < 1e-8 * s[0]) return static_cast<int>(i);
    return static_cast<int>(s.size());
  };
  EXPECT_LE(decay_rank(ss), decay_rank(sr));
}

TEST(Problem, SyntheticObservationsMatchDimension) {
  auto prob = make_problem(ProblemKind::kSt2DExp, 40, 3);
  Rng rng(5);
  EXPECT_EQ(prob.synthetic_observations(rng).size(), 40u);
}

TEST(Problem, PresetNames) {
  EXPECT_EQ(to_string(ProblemKind::kSt3DExp), "st-3D-exp");
  EXPECT_EQ(to_string(ProblemKind::kSt2DExp), "st-2D-exp");
}

// ------------------------------------------- additional applications ----

TEST(Kernels, ElectrostaticsIsCoulomb) {
  Electrostatics k(100.0);
  EXPECT_DOUBLE_EQ(k(0.0), 100.0);
  EXPECT_DOUBLE_EQ(k(0.5), 2.0);
  EXPECT_DOUBLE_EQ(k(2.0), 0.5);
}

TEST(Kernels, ElectrodynamicsIsSinc) {
  Electrodynamics k(3.0);
  EXPECT_DOUBLE_EQ(k(0.0), 3.0);
  EXPECT_NEAR(k(1.0), std::sin(3.0), 1e-15);
  EXPECT_NEAR(k(0.5), std::sin(1.5) / 0.5, 1e-15);
}

TEST(Problem, ElectrostaticsBlocksAreCompressible) {
  auto prob = make_problem(ProblemKind::kElectrostatics3D, 216, 41);
  auto far = prob.block(162, 0, 54, 54);
  auto s = ptlr::dense::singular_values(far.view());
  // Smooth far-field: geometric decay of the spectrum (1/r between two
  // separated octants of the unit cube at ~200 points decays a bit over
  // half a decade per singular value).
  EXPECT_LT(s[20] / s[0], 1e-3);
  EXPECT_LT(s[40] / s[0], 1e-7);
}

TEST(Problem, ElectrodynamicsHarderThanElectrostatics) {
  auto es = make_problem(ProblemKind::kElectrostatics3D, 216, 43);
  auto ed = make_problem(ProblemKind::kElectrodynamics3D, 216, 43);
  auto bs = es.block(162, 0, 54, 54);
  auto bd = ed.block(162, 0, 54, 54);
  auto ss = ptlr::dense::singular_values(bs.view());
  auto sd = ptlr::dense::singular_values(bd.view());
  // Oscillatory kernels decay more slowly (relative spectrum).
  EXPECT_GT(sd[10] / sd[0], ss[10] / ss[0]);
}

TEST(Problem, NewPresetNames) {
  EXPECT_EQ(to_string(ProblemKind::kElectrostatics3D), "electrostatics-3D");
  EXPECT_EQ(to_string(ProblemKind::kElectrodynamics3D),
            "electrodynamics-3D");
}
