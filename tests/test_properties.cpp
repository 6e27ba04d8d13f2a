// Property-based tests across module boundaries:
//  * randomized DAG fuzzing of the executor and simulator (dependency and
//    schedule-validity invariants on arbitrary graphs),
//  * full-pipeline sweeps (problem kind × compression backend × band ×
//    threads) asserting the backward-error contract everywhere.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>

#include "core/cholesky.hpp"
#include "core/solve.hpp"
#include "dense/lapack.hpp"
#include "dense/util.hpp"
#include "runtime/executor.hpp"
#include "runtime/simulator.hpp"

using namespace ptlr;
using namespace ptlr::rt;

// ----------------------------------------------------- DAG fuzzing ----

namespace {

struct FuzzGraph {
  TaskGraph graph;
  std::vector<std::vector<TaskId>> preds;  // explicit predecessor lists
};

// Random graph over a small key pool; every task reads/writes random keys.
FuzzGraph make_fuzz_graph(Rng& rng, int ntasks, int nkeys,
                          std::vector<int>* order) {
  FuzzGraph fg;
  fg.preds.resize(static_cast<std::size_t>(ntasks));
  auto mu = std::make_shared<std::mutex>();  // shared with the task bodies
  for (int t = 0; t < ntasks; ++t) {
    std::vector<DataKey> reads, writes;
    const int nr = static_cast<int>(rng.integer(0, 3));
    const int nw = static_cast<int>(rng.integer(0, 2));
    for (int r = 0; r < nr; ++r)
      reads.push_back(make_key(0, 0,
                               static_cast<std::uint32_t>(
                                   rng.integer(0, nkeys - 1))));
    for (int w = 0; w < nw; ++w)
      writes.push_back(make_key(0, 0,
                                static_cast<std::uint32_t>(
                                    rng.integer(0, nkeys - 1))));
    TaskInfo info;
    info.name = "f" + std::to_string(t);
    info.duration = rng.uniform(0.0, 0.1);
    info.owner = static_cast<int>(rng.integer(0, 3));
    info.output_bytes = static_cast<std::size_t>(rng.integer(0, 1 << 16));
    info.priority = rng.uniform();
    if (order != nullptr) {
      info.fn = [t, order, mu] {
        std::lock_guard<std::mutex> lock(*mu);
        order->push_back(t);
      };
    }
    fg.graph.add_task(std::move(info), reads, writes);
  }
  // Record explicit predecessor lists from the built graph.
  for (TaskId t = 0; t < fg.graph.size(); ++t)
    for (const TaskId s : fg.graph.successors(t))
      fg.preds[static_cast<std::size_t>(s)].push_back(t);
  return fg;
}

}  // namespace

class DagFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DagFuzz, ExecutorRespectsEveryEdge) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<int> order;
  auto fg = make_fuzz_graph(rng, 120, 10, &order);
  execute(fg.graph, 4);
  ASSERT_EQ(order.size(), 120u);
  std::vector<int> position(order.size());
  for (std::size_t p = 0; p < order.size(); ++p)
    position[static_cast<std::size_t>(order[p])] = static_cast<int>(p);
  for (TaskId t = 0; t < fg.graph.size(); ++t)
    for (const TaskId pred : fg.preds[static_cast<std::size_t>(t)]) {
      EXPECT_LT(position[static_cast<std::size_t>(pred)],
                position[static_cast<std::size_t>(t)])
          << "edge " << pred << " -> " << t << " violated";
    }
}

TEST_P(DagFuzz, SimulatorScheduleIsCausallyValid) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  auto fg = make_fuzz_graph(rng, 150, 12, nullptr);
  SimConfig cfg{4, 2, {}, true};
  auto res = simulate(fg.graph, cfg);
  // Every task starts no earlier than all its predecessors end (plus the
  // communication delay for remote edges).
  for (TaskId t = 0; t < fg.graph.size(); ++t) {
    const auto& ev = res.trace[static_cast<std::size_t>(t)];
    ASSERT_EQ(ev.task, t);
    for (const TaskId pred : fg.preds[static_cast<std::size_t>(t)]) {
      const auto& pv = res.trace[static_cast<std::size_t>(pred)];
      double lower = pv.end;
      if (fg.graph.info(pred).owner != fg.graph.info(t).owner) {
        lower += cfg.comm.latency;  // at least the latency must pass
      }
      EXPECT_GE(ev.start + 1e-12, lower)
          << "task " << t << " started before dependency " << pred;
    }
  }
  // Work conservation: per-process busy time equals the task durations.
  std::vector<double> busy(4, 0.0);
  for (const auto& ev : res.trace)
    busy[static_cast<std::size_t>(ev.proc)] += ev.end - ev.start;
  for (int p = 0; p < 4; ++p) EXPECT_NEAR(busy[p], res.busy[p], 1e-9);
}

TEST_P(DagFuzz, ExecutorThreadCountDoesNotChangeTaskSet) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  std::vector<int> order1, order4;
  auto g1 = make_fuzz_graph(rng, 80, 8, &order1);
  Rng rng2(static_cast<std::uint64_t>(GetParam()) + 2000);
  auto g4 = make_fuzz_graph(rng2, 80, 8, &order4);
  execute(g1.graph, 1);
  execute(g4.graph, 4);
  std::sort(order1.begin(), order1.end());
  std::sort(order4.begin(), order4.end());
  EXPECT_EQ(order1, order4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagFuzz, ::testing::Range(1, 9));

// ------------------------------------------------ pipeline sweeps ----

namespace {

struct PipelineCase {
  stars::ProblemKind kind;
  compress::Method method;
  int band;     // 0 = auto
  int threads;
};

dense::Matrix assemble_lower_factor(const tlr::TlrMatrix& m) {
  dense::Matrix l(m.n(), m.n());
  for (int i = 0; i < m.nt(); ++i)
    for (int j = 0; j <= i; ++j) {
      dense::Matrix blk = m.at(i, j).to_dense();
      for (int c = 0; c < blk.cols(); ++c)
        for (int r = 0; r < blk.rows(); ++r) {
          if (i == j && r < c) continue;
          l(m.row_offset(i) + r, m.row_offset(j) + c) = blk(r, c);
        }
    }
  return l;
}

}  // namespace

class PipelineSweep : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineSweep, FactorizationMeetsBackwardErrorEverywhere) {
  const auto p = GetParam();
  const int n = 192, b = 48;
  const double tol = 1e-5;
  auto prob = stars::make_problem(p.kind, n, 17, 1e-1);
  auto a = tlr::TlrMatrix::from_problem_parallel(prob, b, {tol, 1 << 30},
                                                 p.threads, 1, p.method);
  core::CholeskyConfig cfg;
  cfg.acc = {tol, 1 << 30};
  cfg.band_size = p.band;
  cfg.nthreads = p.threads;
  auto res = core::factorize(a, &prob, cfg);
  EXPECT_GE(res.band_size, 1);

  dense::Matrix exact = prob.block(0, 0, n, n);
  dense::Matrix l = assemble_lower_factor(a);
  dense::Matrix rec(n, n);
  dense::gemm(dense::Trans::N, dense::Trans::T, 1.0, l.view(), l.view(),
              0.0, rec.view());
  const double err = dense::frob_diff(rec.view(), exact.view()) /
                     dense::frob_norm(exact.view());
  EXPECT_LT(err, tol * n) << stars::to_string(p.kind);
}

INSTANTIATE_TEST_SUITE_P(
    KindsMethodsBands, PipelineSweep,
    ::testing::Values(
        PipelineCase{stars::ProblemKind::kSt3DExp,
                     compress::Method::kCpqrSvd, 0, 2},
        PipelineCase{stars::ProblemKind::kSt3DExp, compress::Method::kRsvd,
                     2, 2},
        PipelineCase{stars::ProblemKind::kSt3DExp, compress::Method::kAca,
                     0, 4},
        PipelineCase{stars::ProblemKind::kSt2DExp,
                     compress::Method::kCpqrSvd, 0, 2},
        PipelineCase{stars::ProblemKind::kSt2DExp, compress::Method::kAca,
                     1, 2},
        PipelineCase{stars::ProblemKind::kSt3DSqExp,
                     compress::Method::kCpqrSvd, 2, 2},
        PipelineCase{stars::ProblemKind::kSt3DMatern,
                     compress::Method::kRsvd, 0, 2},
        PipelineCase{stars::ProblemKind::kSt3DMatern,
                     compress::Method::kCpqrSvd, 3, 1}));

// --------------------- schedule independence of the factorization ----

namespace {

// One full BAND-DENSE-TLR factorization of the same Matérn problem,
// returning the assembled lower factor. The band is fixed (the auto-tuner
// measures wall-clock and is deliberately schedule-dependent) and the
// compression method is deterministic, so the only degree of freedom left
// is the executor's schedule.
dense::Matrix factor_matern_once(const stars::CovarianceProblem& prob,
                                 int threads, rt::PerturbConfig perturb) {
  const int b = 48;
  const double tol = 1e-6;
  auto a = tlr::TlrMatrix::from_problem_parallel(
      prob, b, {tol, 1 << 30}, threads, 1, compress::Method::kCpqrSvd);
  core::CholeskyConfig cfg;
  cfg.acc = {tol, 1 << 30};
  cfg.band_size = 2;
  cfg.nthreads = threads;
  cfg.perturb = perturb;
  core::factorize(a, &prob, cfg);
  return assemble_lower_factor(a);
}

}  // namespace

TEST(ScheduleIndependence, BandDenseTlrCholeskyAcrossThreadsAndSeeds) {
  // The dataflow graph serializes every kernel pair that touches a common
  // tile, so any schedule — any thread count, any perturbation seed —
  // must produce the same factor down to the last bit. A nonzero
  // divergence here means a kernel ran against a stale or torn tile.
  constexpr double kScheduleTol = 0.0;  // bitwise identity, explicitly
  const int n = 192;
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DMatern, n, 17, 1e-1);
  const dense::Matrix ref = factor_matern_once(prob, 1, {});
  for (const int threads : {1, 2, 4}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const dense::Matrix got = factor_matern_once(
          prob, threads, rt::PerturbConfig::with_seed(seed));
      double max_diff = 0.0;
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
          max_diff = std::max(max_diff, std::abs(got(i, j) - ref(i, j)));
      EXPECT_LE(max_diff, kScheduleTol)
          << "factor diverged at " << threads << " threads, seed " << seed;
    }
  }
}
