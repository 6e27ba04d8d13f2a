// Tests for the observability layer (src/obs): golden-trace schema checks,
// counter exactness against the Table I flop models, zero-footprint when
// disabled, mailbox comm events, and the end-of-run reporters.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "core/cholesky.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "runtime/mailbox.hpp"
#include "support/mini_json.hpp"

using namespace ptlr;
namespace mj = ptlr::testing::json;

namespace {

// Every test starts and ends with the global obs state quiesced and empty,
// so suites compose in one process regardless of order.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::enable(false);
    obs::reset();
  }
  void TearDown() override {
    obs::enable(false);
    obs::reset();
  }
};

struct RunSetup {
  stars::CovarianceProblem prob;
  tlr::TlrMatrix mat;
  core::CholeskyConfig cfg;
};

// A fixed small band Cholesky (nt = n/b tiles per side, forced BAND_SIZE)
// used by the trace and counter tests. No perturbation env dependence: the
// suite asserts schedule-independent facts only.
RunSetup setup_run(int n, int b, int band) {
  const compress::Accuracy acc{1e-6, 1 << 30};
  auto prob = stars::make_problem(stars::ProblemKind::kSt3DExp, n);
  auto mat = tlr::TlrMatrix::from_problem(prob, b, acc, 1);
  core::CholeskyConfig cfg;
  cfg.acc = acc;
  cfg.band_size = band;
  cfg.nthreads = 2;
  return {std::move(prob), std::move(mat), cfg};
}

}  // namespace

// ------------------------------------------------------- golden trace ----

TEST_F(ObsTest, GoldenTraceIsSchemaValidAndComplete) {
  obs::enable(true);
  auto r = setup_run(256, 64, 2);  // 4x4 tile grid
  r.cfg.record_trace = true;
  const auto res = core::factorize(r.mat, &r.prob, r.cfg);
  const std::string path = ::testing::TempDir() + "ptlr_golden_trace.json";
  obs::write_chrome_trace(path);
  obs::enable(false);

  const mj::Value doc = mj::parse_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.has("traceEvents"));
  const mj::Value& evs = doc.at("traceEvents");
  ASSERT_TRUE(evs.is_array());

  long long task_events = 0;
  bool saw_run_metadata = false;
  // Within one (pid, tid) lane, timestamps must be monotone: each worker
  // records its spans in execution order on a steady clock.
  std::map<std::pair<double, double>, double> last_ts;
  for (const mj::Value& e : evs.array) {
    ASSERT_TRUE(e.is_object());
    for (const char* key : {"name", "ph", "pid", "tid"})
      ASSERT_TRUE(e.has(key)) << "event missing " << key;
    ASSERT_TRUE(e.at("ph").is_string());
    const std::string ph = e.at("ph").string;
    if (ph == "M") continue;  // lane-name metadata has no timestamp
    ASSERT_TRUE(e.has("ts"));
    ASSERT_TRUE(e.at("ts").is_number());
    if (e.at("name").string == "run_metadata") {
      saw_run_metadata = true;
      const mj::Value& args = e.at("args");
      EXPECT_EQ(args.at("n").string, "256");
      EXPECT_EQ(args.at("tile_size").string, "64");
      EXPECT_EQ(args.at("band_size").string, "2");
      continue;
    }
    if (ph != "X") continue;
    ++task_events;
    // One complete event per task: begin/end collapsed into ts + dur.
    ASSERT_TRUE(e.has("dur"));
    EXPECT_GE(e.at("dur").number, 0.0);
    const mj::Value& args = e.at("args");
    for (const char* key : {"kind", "kernel", "panel", "i", "j", "flops",
                            "bytes", "rank_in", "rank_out"})
      ASSERT_TRUE(args.has(key)) << "args missing " << key;
    EXPECT_GE(args.at("kind").number, 0.0);
    EXPECT_LT(args.at("kind").number, flops::kNumKernels);
    EXPECT_GE(args.at("flops").number, 0.0);
    const auto lane = std::make_pair(e.at("pid").number, e.at("tid").number);
    const auto it = last_ts.find(lane);
    if (it != last_ts.end()) EXPECT_GE(e.at("ts").number, it->second);
    last_ts[lane] = e.at("ts").number;
  }
  EXPECT_TRUE(saw_run_metadata);
  // Exactly one span per task the graph executed.
  EXPECT_EQ(task_events, res.stats.tasks);
}

TEST_F(ObsTest, TraceCarriesMeasuredFlopsMatchingCounters) {
  obs::enable(true);
  auto r = setup_run(256, 64, 2);
  core::factorize(r.mat, &r.prob, r.cfg);
  obs::enable(false);

  double span_flops = 0.0;
  for (const obs::Span& s : obs::snapshot_spans()) span_flops += s.flops;
  // Same charges aggregated two ways; double sums in different orders, so
  // compare to relative precision rather than bitwise.
  EXPECT_NEAR(span_flops, obs::Counters::total_flops(),
              1e-9 * span_flops + 1e-9);
  EXPECT_GT(span_flops, 0.0);
}

// ------------------------------------------------------ counter registry ----

TEST_F(ObsTest, DenseKernelFlopsBitwiseEqualTableIModel) {
  obs::enable(true);
  // One task per tile kernel, n divisible by b: every dense task of a
  // class charges the identical closed-form value, making the class sum
  // bitwise exact regardless of how the scheduler interleaved the CAS
  // accumulation.
  // Band 3 on the 4x4 grid makes all four dense classes appear (a dense
  // GEMM needs its A, B and C tiles on the band at once).
  auto r = setup_run(256, 64, 3);
  core::factorize(r.mat, &r.prob, r.cfg);
  obs::enable(false);

  const int b = 64;
  const flops::Kernel dense_classes[] = {
      flops::Kernel::kPotrf1, flops::Kernel::kTrsm1, flops::Kernel::kSyrk1,
      flops::Kernel::kGemm1};
  for (const flops::Kernel k : dense_classes) {
    const auto row = obs::Counters::row(static_cast<int>(k));
    ASSERT_GT(row.count, 0) << obs::kernel_name(static_cast<int>(k));
    const double per_task = flops::model(k, b, 0);
    double expected = 0.0;
    for (long long i = 0; i < row.count; ++i) expected += per_task;
    EXPECT_EQ(row.flops, expected)
        << obs::kernel_name(static_cast<int>(k)) << " count " << row.count;
  }
}

TEST_F(ObsTest, LowRankKernelFlopsWithinRankDependentBounds) {
  obs::enable(true);
  auto r = setup_run(256, 64, 1);  // thin band: LR work
  core::factorize(r.mat, &r.prob, r.cfg);
  obs::enable(false);

  const int b = 64;
  bool saw_lowrank = false;
  const flops::Kernel lr_classes[] = {
      flops::Kernel::kTrsm4, flops::Kernel::kSyrk3, flops::Kernel::kGemm5,
      flops::Kernel::kGemm6};
  for (const flops::Kernel k : lr_classes) {
    const auto row = obs::Counters::row(static_cast<int>(k));
    if (row.count == 0) continue;
    saw_lowrank = true;
    EXPECT_GT(row.flops, 0.0) << obs::kernel_name(static_cast<int>(k));
    // Rank-dependent work is bounded by a dense-tile blowup: each task
    // touches O(b^3)-scale factors even with recompression overheads. The
    // heaviest class here, (6)-GEMM, averages about 34 b^3 per task since
    // recompression truncates its core by pivoted QR before the Jacobi
    // SVD; the bound leaves 2x headroom over that.
    EXPECT_LT(row.flops,
              static_cast<double>(row.count) * 70.0 * b * b * b)
        << obs::kernel_name(static_cast<int>(k));
    // Reported ranks are sane: within [0, b] and min <= mean <= max.
    if (row.rank_tasks > 0) {
      EXPECT_GE(row.rank_in_min, 0);
      EXPECT_LE(row.rank_in_max, b);
      EXPECT_LE(row.rank_in_min, row.rank_in_mean + 1e-12);
      EXPECT_LE(row.rank_in_mean, row.rank_in_max + 1e-12);
    }
  }
  EXPECT_TRUE(saw_lowrank) << "band 1 run produced no low-rank kernels";
  // Thin band with recompression: the compression channel saw traffic.
  const auto comp = obs::Counters::compressions();
  EXPECT_GT(comp.count, 0);
  EXPECT_GE(comp.rank_in_sum, comp.rank_out_sum);
}

TEST_F(ObsTest, DisabledLayerRecordsNothing) {
  ASSERT_FALSE(obs::enabled());
  auto r = setup_run(128, 32, 1);
  const auto res = core::factorize(r.mat, &r.prob, r.cfg);
  EXPECT_GT(res.measured_flops, 0.0);  // the run itself did real work

  EXPECT_TRUE(obs::snapshot_spans().empty());
  EXPECT_TRUE(obs::Counters::kernel_rows().empty());
  EXPECT_DOUBLE_EQ(obs::Counters::total_flops(), 0.0);
  EXPECT_EQ(obs::Counters::comm().messages, 0);
  EXPECT_EQ(obs::Counters::compressions().count, 0);
  EXPECT_EQ(obs::counters_ascii(), "");
}

TEST_F(ObsTest, MailboxDepositsBecomeCommEvents) {
  obs::enable(true);
  rt::dist::Communicator comm(2, rt::PerturbConfig{});
  comm.send(0, 1, /*tag=*/7, std::vector<char>(100, 'x'));
  comm.send(1, 1, /*tag=*/7, std::vector<char>(5, 'y'));  // self: not counted
  (void)comm.recv(1, 7);
  (void)comm.recv(1, 7);
  obs::enable(false);

  const auto c = obs::Counters::comm();
  EXPECT_EQ(c.messages, 1);
  EXPECT_EQ(c.bytes, 100);
  int comm_spans = 0;
  for (const obs::Span& s : obs::snapshot_spans())
    if (s.cat == obs::SpanCat::kComm) {
      ++comm_spans;
      EXPECT_EQ(s.ti, 0);  // from
      EXPECT_EQ(s.tj, 1);  // to
      EXPECT_EQ(s.bytes, 100);
    }
  EXPECT_EQ(comm_spans, 1);
}

// ------------------------------------------------------------- reporters ----

TEST_F(ObsTest, RankHistogramAccountsForEveryTile) {
  auto r = setup_run(256, 64, 2);
  const auto h = obs::rank_histogram(r.mat);
  const long long nt = r.mat.nt();
  EXPECT_EQ(h.dense_diag, nt);
  EXPECT_EQ(h.lowrank_tiles + h.dense_offdiag, nt * (nt - 1) / 2);
  long long bucketed = 0;
  for (const long long c : h.counts) bucketed += c;
  EXPECT_EQ(bucketed, h.lowrank_tiles);
  if (h.lowrank_tiles > 0) {
    EXPECT_LE(h.min_rank, h.mean_rank + 1e-12);
    EXPECT_LE(h.mean_rank, h.max_rank + 1e-12);
    EXPECT_LE(h.max_rank, r.mat.tile_size());
  }
  // JSON artifact parses and round-trips the totals.
  const mj::Value j = mj::parse(obs::to_json(h));
  EXPECT_EQ(static_cast<long long>(j.at("lowrank_tiles").number),
            h.lowrank_tiles);
}

TEST_F(ObsTest, MemoryReportRatiosAreConsistent) {
  auto r = setup_run(256, 64, 2);
  const auto m = obs::memory_report(r.mat, /*static_maxrank=*/32);
  EXPECT_GT(m.exact_mb, 0.0);
  EXPECT_GT(m.static_mb, 0.0);
  EXPECT_GT(m.dense_mb, 0.0);
  EXPECT_NEAR(m.ratio_vs_dense, m.exact_mb / m.dense_mb, 1e-12);
  EXPECT_NEAR(m.ratio_vs_static, m.exact_mb / m.static_mb, 1e-12);
  const mj::Value j = mj::parse(obs::to_json(m));
  EXPECT_EQ(static_cast<int>(j.at("n").number), 256);
}

TEST_F(ObsTest, CriticalPathBoundsTheMeasuredExecution) {
  auto r = setup_run(256, 64, 2);
  r.cfg.record_trace = true;
  const auto res = core::factorize(r.mat, &r.prob, r.cfg);
  const auto cp = res.critical_path;
  EXPECT_GT(cp.path_tasks, 0);
  EXPECT_GT(cp.path_seconds, 0.0);
  // The longest chain can never exceed the serial sum, and the measured
  // makespan can never beat the critical path (its tasks ran in sequence).
  EXPECT_LE(cp.path_seconds, cp.serial_seconds * (1.0 + 1e-12));
  EXPECT_GE(cp.makespan * (1.0 + 1e-9) + 1e-9, cp.path_seconds);
  EXPECT_GE(cp.avg_parallelism, 1.0 - 1e-12);
  const mj::Value j = mj::parse(obs::to_json(cp));
  EXPECT_NEAR(j.at("path_seconds").number, cp.path_seconds,
              1e-9 * cp.path_seconds + 1e-12);
}

TEST_F(ObsTest, CountersJsonIsValidAndSumsRows) {
  obs::enable(true);
  auto r = setup_run(256, 64, 2);
  core::factorize(r.mat, &r.prob, r.cfg);
  obs::enable(false);

  const mj::Value j = mj::parse(obs::counters_json());
  ASSERT_TRUE(j.has("kernels"));
  double json_flops = 0.0;
  for (const mj::Value& row : j.at("kernels").array)
    json_flops += row.at("flops").number;
  // JSON carries %.17g doubles: exact round-trip of the registry totals.
  EXPECT_NEAR(json_flops, obs::Counters::total_flops(),
              1e-9 * json_flops + 1e-9);
  const auto rows = obs::Counters::kernel_rows();
  EXPECT_EQ(j.at("kernels").array.size(), rows.size());
}
