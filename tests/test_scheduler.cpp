// Work-stealing scheduler suite: priority banding, the Chase–Lev deque,
// and the full fuzz-invariant battery run on the lock-free engine with
// chaos mode pinned off (the perturbation suite covers the same shapes
// with it on), plus steal-heavy stress, run-on-finisher chains, nested
// child tasks, resilience contracts and end-to-end Cholesky bitwise
// identity. CI runs this binary under ThreadSanitizer and
// AddressSanitizer via the preset label filters.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cholesky.hpp"
#include "dense/blas.hpp"
#include "runtime/executor.hpp"
#include "runtime/nested.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/ws_deque.hpp"
#include "support/fuzz.hpp"

using namespace ptlr;
using namespace ptlr::testing;

namespace {

rt::ExecOptions ws_options() {
  rt::ExecOptions opts;
  opts.record_trace = true;
  opts.perturb = rt::PerturbConfig{};        // chaos off: habitual schedule
  opts.faults = resil::FaultConfig{};        // no injection
  opts.watchdog = resil::WatchdogConfig{};   // no deadline
  return opts;
}

// Run `p` under `opts` and assert all three fuzz invariants against the
// sequential oracle (same contract as the perturbation fuzz suite).
void run_and_check(FuzzProgram& p, int nthreads,
                   const rt::ExecOptions& opts) {
  const std::vector<double> oracle = p.run_reference();
  p.reset();
  const auto res = rt::execute(p.graph(), nthreads, opts);
  EXPECT_EQ(check_ran_exactly_once(p.run_counts()), "");
  EXPECT_EQ(check_happens_before(p.graph(), res.trace), "");
  EXPECT_EQ(check_cells_match(p.cells(), oracle), "");
}

}  // namespace

// ------------------------------------------------------------ band map --

TEST(BandMap, FlatGraphIsOneBand) {
  auto p = FuzzProgram::diamond(2, 3);
  const auto m = rt::BandMap::from_graph(p.graph());
  EXPECT_EQ(m.band(0.0), 0);
}

TEST(BandMap, RangeBinsMonotonically) {
  rt::TaskGraph g;
  for (int i = 0; i < 5; ++i) {
    rt::TaskInfo t;
    t.name = "t" + std::to_string(i);
    t.priority = static_cast<double>(i * 10);
    t.fn = [] {};
    g.add_task(std::move(t), {}, {});
  }
  const auto m = rt::BandMap::from_graph(g);
  EXPECT_EQ(m.band(0.0), 0);
  EXPECT_EQ(m.band(40.0), rt::kSchedBands - 1);
  int prev = 0;
  for (double x = 0.0; x <= 40.0; x += 1.0) {
    const int b = m.band(x);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, rt::kSchedBands);
    prev = b;
  }
}

// ---------------------------------------------------------------- deque --

TEST(WsDeque, OwnerIsLifoThiefIsFifo) {
  rt::WsDeque d;
  for (std::int32_t i = 0; i < 4; ++i) d.push(i);
  EXPECT_EQ(d.steal(), 0);  // oldest
  EXPECT_EQ(d.pop(), 3);    // newest
  EXPECT_EQ(d.pop(), 2);
  EXPECT_EQ(d.steal(), 1);
  EXPECT_EQ(d.pop(), rt::WsDeque::kEmpty);
  EXPECT_EQ(d.steal(), rt::WsDeque::kEmpty);
}

TEST(WsDeque, GrowsPastInitialCapacity) {
  rt::WsDeque d(8);
  const std::int32_t n = 1000;
  for (std::int32_t i = 0; i < n; ++i) d.push(i);
  EXPECT_EQ(d.size_hint(), n);
  for (std::int32_t i = n - 1; i >= 0; --i) EXPECT_EQ(d.pop(), i);
  EXPECT_EQ(d.pop(), rt::WsDeque::kEmpty);
}

TEST(WsDeque, ConcurrentStealsTakeEveryTaskExactlyOnce) {
  rt::WsDeque d;
  const std::int32_t n = 20000;
  std::vector<std::atomic<int>> taken(static_cast<std::size_t>(n));
  std::atomic<bool> go{false};
  std::atomic<std::int32_t> remaining{n};
  auto thief = [&] {
    while (!go.load(std::memory_order_acquire)) {
    }
    while (remaining.load(std::memory_order_acquire) > 0) {
      const std::int32_t v = d.steal();
      if (v < 0) continue;
      taken[static_cast<std::size_t>(v)].fetch_add(1);
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
  };
  std::thread t1(thief), t2(thief);
  go.store(true, std::memory_order_release);
  // Owner interleaves pushes and pops against the two thieves.
  std::int32_t pushed = 0;
  while (pushed < n) {
    for (int burst = 0; burst < 64 && pushed < n; ++burst) d.push(pushed++);
    const std::int32_t v = d.pop();
    if (v >= 0) {
      taken[static_cast<std::size_t>(v)].fetch_add(1);
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  for (;;) {
    const std::int32_t v = d.pop();
    if (v == rt::WsDeque::kEmpty) break;
    taken[static_cast<std::size_t>(v)].fetch_add(1);
    remaining.fetch_sub(1, std::memory_order_acq_rel);
  }
  t1.join();
  t2.join();
  EXPECT_EQ(remaining.load(), 0);
  for (std::int32_t i = 0; i < n; ++i)
    EXPECT_EQ(taken[static_cast<std::size_t>(i)].load(), 1) << "task " << i;
}

// ----------------------------------------------- fuzz invariants on ws --

class WsFuzz : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] std::uint64_t seed() const {
    return static_cast<std::uint64_t>(GetParam());
  }
};

TEST_P(WsFuzz, RandomDagMatchesOracle) {
  Rng rng(seed());
  auto p = FuzzProgram::random(rng, 150, 12);
  for (const int nthreads : {2, 4})
    run_and_check(p, nthreads, ws_options());
}

TEST_P(WsFuzz, DiamondMatchesOracle) {
  auto p = FuzzProgram::diamond(10, 6);
  for (const int nthreads : {2, 4})
    run_and_check(p, nthreads, ws_options());
}

TEST_P(WsFuzz, ForkJoinMatchesOracle) {
  auto p = FuzzProgram::fork_join(8, 5);
  for (const int nthreads : {2, 4})
    run_and_check(p, nthreads, ws_options());
}

TEST_P(WsFuzz, BandCholeskyShapeMatchesOracle) {
  auto p = FuzzProgram::band_cholesky(6, 2);
  for (const int nthreads : {2, 4})
    run_and_check(p, nthreads, ws_options());
}

TEST_P(WsFuzz, NestedShapeMatchesOracle) {
  // Tasks that spawn random child subgraphs through rt::TaskGroup: the
  // cells must still match the insertion-order oracle bitwise, and every
  // child must run exactly once, whether the children get stolen or run
  // on the spawning worker.
  Rng rng(seed());
  auto p = FuzzProgram::nested(rng, 100, 10, 4);
  for (const int nthreads : {2, 4}) {
    run_and_check(p, nthreads, ws_options());
    EXPECT_EQ(check_ran_exactly_once(p.child_runs()), "")
        << "child counts at " << nthreads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WsFuzz, ::testing::Range(1, 9));

TEST(WsScheduler, StealHeavyStressStealsAndStaysCorrect) {
  // Wide fork-join with skewed durations: one source releases the whole
  // middle layer onto the finishing worker's deque at once, so other
  // workers can only get work by stealing; a sink joins everything. Two
  // of the middle tasks form a rendezvous — a waiter that spins until a
  // setter runs — which makes at least one steal mandatory on any machine
  // (including a single-core box, where preemption alone decides whether
  // the idle workers ever see the short spinners): the finishing worker
  // pops the waiter (LIFO — it is pushed last) and blocks, so the setter
  // can only run via another worker's steal.
  constexpr int kWidth = 64;
  rt::TaskGraph g;
  std::vector<double> out(kWidth, 0.0);
  std::atomic<long long> ran{0};
  std::atomic<bool> flag{false};
  {
    rt::TaskInfo t;
    t.name = "src";
    t.fn = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
    g.add_task(std::move(t), {}, {{rt::make_key(1, 0, 0)}});
  }
  {
    rt::TaskInfo t;
    t.name = "setter";
    t.fn = [&ran, &flag] {
      flag.store(true, std::memory_order_release);
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    g.add_task(std::move(t), {{rt::make_key(1, 0, 0)}},
               {{rt::make_key(3, 0, 0)}});
  }
  for (int i = 0; i < kWidth; ++i) {
    rt::TaskInfo t;
    t.name = "spin" + std::to_string(i);
    double* slot = &out[static_cast<std::size_t>(i)];
    const int iters = 100 + (i % 8) * 4000;  // skewed durations
    t.fn = [&ran, slot, iters] {
      double acc = 1.0;
      for (int k = 0; k < iters; ++k) acc = acc * 1.0000001 + 1e-9;
      *slot = acc;
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    g.add_task(std::move(t), {{rt::make_key(1, 0, 0)}},
               {{rt::make_key(2, static_cast<std::uint32_t>(i), 0)}});
  }
  {
    // Added last → pushed last on release → popped first by the worker
    // that finished the source.
    rt::TaskInfo t;
    t.name = "waiter";
    t.fn = [&ran, &flag] {
      while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
      ran.fetch_add(1, std::memory_order_relaxed);
    };
    g.add_task(std::move(t), {{rt::make_key(1, 0, 0)}},
               {{rt::make_key(3, 1, 0)}});
  }
  {
    rt::TaskInfo t;
    t.name = "sink";
    t.fn = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
    std::vector<rt::DataKey> reads;
    for (int i = 0; i < kWidth; ++i)
      reads.push_back({rt::make_key(2, static_cast<std::uint32_t>(i), 0)});
    reads.push_back({rt::make_key(3, 0, 0)});
    reads.push_back({rt::make_key(3, 1, 0)});
    g.add_task(std::move(t), reads, {});
  }

  auto opts = ws_options();
  const auto res = rt::execute(g, 4, opts);
  EXPECT_EQ(ran.load(), kWidth + 4);
  EXPECT_EQ(check_happens_before(g, res.trace), "");
  EXPECT_GT(res.sched.steals, 0);
  for (int i = 0; i < kWidth; ++i)
    EXPECT_GT(out[static_cast<std::size_t>(i)], 0.0) << "spinner " << i;
}

// ----------------------------------------------- run-on-finisher chain --

TEST(WsScheduler, SerialChainRunsInlineWithoutWakeups) {
  // A pure single-successor chain is the worst case for the old release
  // path (one deque round trip + possible divert + wakeup per hop) and
  // the best case for run-on-finisher: every hop but the depth-cap breaks
  // must become a plain function call. The counter math is deterministic
  // regardless of which worker ends up driving the chain: a segment is
  // 1 popped/stolen task + kInlineChainMax inlined successors, so 1000
  // tasks split as 257 + 257 + 257 + 229 — 996 inline runs and 3
  // suppressed diverts — and no release ever wakes anyone, because a sole
  // successor is either inlined or (at a break) pushed for the same
  // worker to pop back.
  constexpr int kN = 1000;
  rt::TaskGraph g;
  std::atomic<long long> ran{0};
  std::vector<rt::DataKey> prev;
  for (int i = 0; i < kN; ++i) {
    rt::TaskInfo t;
    t.name = "c";
    t.fn = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
    const std::vector<rt::DataKey> out{
        rt::make_key(1, static_cast<std::uint32_t>(i), 0)};
    g.add_task(std::move(t), prev, out);
    prev = out;
  }
  const auto res = rt::execute(g, 2, ws_options());
  EXPECT_EQ(ran.load(), kN);
  EXPECT_EQ(check_happens_before(g, res.trace), "");
  EXPECT_EQ(res.sched.inline_runs, 996);
  EXPECT_EQ(res.sched.divert_suppressed, 3);
  EXPECT_EQ(res.sched.wakeups, 0);
}

namespace {

// A pure single-successor chain of `n` counting tasks.
void add_serial_chain(rt::TaskGraph& g, int n, std::atomic<long long>& ran) {
  std::vector<rt::DataKey> prev;
  for (int i = 0; i < n; ++i) {
    rt::TaskInfo t;
    t.name = "c";
    t.fn = [&ran] { ran.fetch_add(1, std::memory_order_relaxed); };
    const std::vector<rt::DataKey> out{
        rt::make_key(1, static_cast<std::uint32_t>(i), 0)};
    g.add_task(std::move(t), prev, out);
    prev = out;
  }
}

// Chaos mode with every site but the pop/chain coin switched off, so the
// run's decisions come only from the site under test.
rt::ExecOptions chaos_options(std::uint64_t seed, double invert_p) {
  rt::ExecOptions opts = ws_options();
  opts.perturb = rt::PerturbConfig::with_seed(seed);
  opts.perturb.stall_probability = 0.0;
  opts.perturb.inversion_probability = invert_p;
  return opts;
}

}  // namespace

TEST(WsScheduler, OneWorkerSerialChainFollowsInlineCapFormula) {
  // One worker drives the whole chain: segments of 1 popped task plus
  // kInlineChainMax inlined successors, the documented
  // n - ceil(n / (kInlineChainMax + 1)) inline runs, one suppressed divert
  // per segment break, and nothing to steal, divert or wake.
  constexpr int kN = 600;
  rt::TaskGraph g;
  std::atomic<long long> ran{0};
  add_serial_chain(g, kN, ran);
  const auto res = rt::execute(g, 1, ws_options());
  const int segments = (kN + rt::kInlineChainMax) / (rt::kInlineChainMax + 1);
  EXPECT_EQ(ran.load(), kN);
  EXPECT_EQ(check_happens_before(g, res.trace), "");
  EXPECT_EQ(res.sched.inline_runs, kN - segments);
  EXPECT_EQ(res.sched.divert_suppressed, segments - 1);
  EXPECT_EQ(res.sched.steals, 0);
  EXPECT_EQ(res.sched.diverted, 0);
  EXPECT_EQ(res.sched.wakeups, 0);
}

TEST(WsScheduler, OneWorkerRunNeverStealsDivertsWakesOrParks) {
  // A lone worker has no victim, no idle peer to divert to or wake, and
  // no reason to sleep: when its own deque runs dry the run is over. The
  // band-Cholesky shape carries tile keys, so the locality divert is
  // consulted on every fan-out release.
  auto p = FuzzProgram::band_cholesky(6, 2);
  const std::vector<double> oracle = p.run_reference();
  p.reset();
  const auto res = rt::execute(p.graph(), 1, ws_options());
  EXPECT_EQ(check_ran_exactly_once(p.run_counts()), "");
  EXPECT_EQ(check_cells_match(p.cells(), oracle), "");
  EXPECT_EQ(res.sched.steals, 0);
  EXPECT_EQ(res.sched.diverted, 0);
  EXPECT_EQ(res.sched.wakeups, 0);
  EXPECT_EQ(res.sched.parks, 0);
  EXPECT_EQ(res.sched.nested_spawned, 0);
}

// ----------------------------------------------------------- chaos sites --

TEST(WsChaos, InlineChainCutsAreSeededAndReplayable) {
  // Every hop of a chain either runs inline or is pushed as a cut that
  // skips the divert, so inline_runs + divert_suppressed = n - 1 at any
  // cut rate. Chaos cuts come on top of the depth cap; on one worker the
  // decision stream is the whole schedule, so a seed replays its count.
  constexpr int kN = 600;
  const int segments = (kN + rt::kInlineChainMax) / (rt::kInlineChainMax + 1);
  auto run = [&](std::uint64_t seed, double invert_p) {
    rt::TaskGraph g;
    std::atomic<long long> ran{0};
    add_serial_chain(g, kN, ran);
    const auto res = rt::execute(g, 1, chaos_options(seed, invert_p));
    EXPECT_EQ(ran.load(), kN);
    EXPECT_EQ(res.sched.inline_runs + res.sched.divert_suppressed, kN - 1);
    return res.sched.inline_runs;
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const long long cut = run(seed, 0.25);
    EXPECT_LT(cut, kN - segments) << "seed " << seed << " cut no chain";
    EXPECT_GT(cut, 0) << "seed " << seed;
    EXPECT_EQ(run(seed, 0.25), cut) << "seed " << seed << " not replayable";
    // The cut coin is the inversion probability: at 0 only the cap cuts.
    EXPECT_EQ(run(seed, 0.0), kN - segments) << "seed " << seed;
  }
}

TEST(WsChaos, PopInversionTakesOldestTaskOfRandomBand) {
  // One worker, four roots per band. Unperturbed, a band's roots run in
  // insertion order (roots are seeded so LIFO pops replay it). A forced
  // inversion takes the FIFO end of a random non-empty band instead, so
  // at probability 1 every band runs its roots newest-inserted first and
  // the bands interleave out of priority order for some seed.
  constexpr int kPerBand = 4;
  bool some_run_inverted_bands = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    rt::TaskGraph g;
    std::vector<int> log;
    for (int b = 0; b < rt::kSchedBands; ++b)
      for (int k = 0; k < kPerBand; ++k) {
        rt::TaskInfo t;
        t.name = "r";
        t.priority = 10.0 * b;
        const int id = b * kPerBand + k;
        t.fn = [&log, id] { log.push_back(id); };
        g.add_task(std::move(t), {}, {});
      }
    rt::execute(g, 1, chaos_options(seed, 1.0));
    ASSERT_EQ(log.size(),
              static_cast<std::size_t>(rt::kSchedBands * kPerBand));
    std::array<int, rt::kSchedBands> last{};
    last.fill(kPerBand);
    int prev_band = rt::kSchedBands;
    for (const int id : log) {
      const int b = id / kPerBand;
      const int k = id % kPerBand;
      EXPECT_LT(k, last[static_cast<std::size_t>(b)])
          << "seed " << seed << ": band " << b << " ran out of FIFO order";
      last[static_cast<std::size_t>(b)] = k;
      if (b > prev_band) some_run_inverted_bands = true;
      prev_band = b;
    }
  }
  EXPECT_TRUE(some_run_inverted_bands);
}

TEST(WsChaos, ChainCutsNeverDivertOrWake) {
  // Chaos cuts push the sole successor to the cutting worker's own deque
  // (allow_divert=false) and never reach the fan-out wake path: with 4
  // workers and seeded steal victims the chain still runs exactly once in
  // order, without a single divert or targeted wakeup.
  constexpr int kN = 400;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    rt::TaskGraph g;
    std::atomic<long long> ran{0};
    add_serial_chain(g, kN, ran);
    const auto res = rt::execute(g, 4, chaos_options(seed, 0.25));
    EXPECT_EQ(ran.load(), kN) << "seed " << seed;
    EXPECT_EQ(check_happens_before(g, res.trace), "") << "seed " << seed;
    EXPECT_EQ(res.sched.inline_runs + res.sched.divert_suppressed, kN - 1)
        << "seed " << seed;
    EXPECT_EQ(res.sched.diverted, 0) << "seed " << seed;
    EXPECT_EQ(res.sched.wakeups, 0) << "seed " << seed;
  }
}

// ------------------------------------------------ nested child tasks --

TEST(WsScheduler, LargeGemmSpawnsChildrenAndStaysBitwise) {
  // A graph task running a dense kernel above the 64^3 volume cutoff must
  // fan out child tasks on the ws engine, and the result must be bitwise
  // identical to the fat serial call (branch-stable decomposition).
  const int n = 256;
  dense::Matrix a(n, n), b(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      a(i, j) = 1.0 + 0.25 * std::sin(0.01 * i + 0.02 * j);
      b(i, j) = 0.5 + 0.125 * std::cos(0.015 * i - 0.01 * j);
    }
  // Serial oracle: no worker context on this thread, so gemm takes the
  // fat single-call branch.
  dense::Matrix ref(n, n);
  dense::gemm(dense::Trans::N, dense::Trans::N, 1.0, a.view(), b.view(),
              0.0, ref.view());

  auto run_graph = [&](dense::Matrix& c) {
    rt::TaskGraph g;
    rt::TaskInfo t;
    t.name = "gemm";
    t.fn = [&] {
      dense::gemm(dense::Trans::N, dense::Trans::N, 1.0, a.view(), b.view(),
                  0.0, c.view());
    };
    g.add_task(std::move(t), {}, {{rt::make_key(0, 0, 0)}});
    return rt::execute(g, 2, ws_options());
  };
  const auto expect_bitwise = [&](const dense::Matrix& c, const char* what) {
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(std::memcmp(&c(i, j), &ref(i, j), sizeof(double)), 0)
            << what << " diverged at (" << i << "," << j << ")";
  };
  dense::Matrix c(n, n);
  const auto res = run_graph(c);
  EXPECT_GT(res.sched.nested_spawned, 0);
  expect_bitwise(c, "nested gemm");
}

TEST(WsScheduler, ChildSubstrateExactlyWhenMoreThanOneWorker) {
  // The executor installs the nested substrate on every multi-worker run
  // and on no one-worker run; the latter runs above-cutoff kernels as one
  // fat call (no spawns), bitwise equal to the serial call.
  const int n = 256;
  dense::Matrix a(n, n), b(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      a(i, j) = 0.75 + 0.25 * std::cos(0.02 * i - 0.01 * j);
      b(i, j) = 1.0 - 0.125 * std::sin(0.01 * i + 0.03 * j);
    }
  dense::Matrix ref(n, n);
  dense::gemm(dense::Trans::N, dense::Trans::N, 1.0, a.view(), b.view(),
              0.0, ref.view());
  for (const int threads : {1, 2, 4}) {
    dense::Matrix c(n, n);
    std::atomic<int> available{-1};
    rt::TaskGraph g;
    rt::TaskInfo t;
    t.name = "gemm";
    t.fn = [&] {
      available.store(rt::nested_available() ? 1 : 0);
      dense::gemm(dense::Trans::N, dense::Trans::N, 1.0, a.view(), b.view(),
                  0.0, c.view());
    };
    g.add_task(std::move(t), {}, {{rt::make_key(0, 0, 0)}});
    const auto res = rt::execute(g, threads, ws_options());
    EXPECT_EQ(available.load(), threads > 1 ? 1 : 0) << threads;
    if (threads > 1) {
      EXPECT_GT(res.sched.nested_spawned, 0) << threads;
    } else {
      EXPECT_EQ(res.sched.nested_spawned, 0);
    }
    EXPECT_EQ(std::memcmp(c.data(), ref.data(),
                          sizeof(double) * static_cast<std::size_t>(n) * n),
              0)
        << threads << " workers diverged from the serial call";
  }
}

// --------------------------------------- resilience contracts under ws --

namespace {

// Tasks with full recovery hooks over a private array (mirrors the
// resilience suite's SlotGraph, trimmed).
struct SlotGraph {
  explicit SlotGraph(int n, double scale) : data(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) {
      rt::TaskInfo t;
      t.name = "slot" + std::to_string(i);
      double* slot = &data[static_cast<std::size_t>(i)];
      const double v = static_cast<double>(i);
      t.fn = [slot, v, scale] { *slot = scale * v + 1.0; };
      rt::TaskOutput out;
      out.save = [slot] {
        std::vector<char> b(sizeof(double));
        std::memcpy(b.data(), slot, sizeof(double));
        return b;
      };
      out.restore = [slot](const std::vector<char>& b) {
        if (b.size() == sizeof(double))
          std::memcpy(slot, b.data(), sizeof(double));
      };
      out.finite = [slot] { return std::isfinite(*slot); };
      out.poison = [slot](std::uint64_t) {
        *slot = std::numeric_limits<double>::quiet_NaN();
        return true;
      };
      t.outputs.push_back(std::move(out));
      g.add_task(std::move(t), {},
                 {{rt::make_key(0, static_cast<std::uint32_t>(i), 0)}});
    }
  }
  std::vector<double> data;
  rt::TaskGraph g;
};

}  // namespace

TEST(WsScheduler, FaultRecoveryAccountingIsExact) {
  // injected == retries == recovered must hold on the lock-free release
  // path, and the output must match.
  const int n = 48;
  SlotGraph sg(n, 2.0);
  auto opts = ws_options();
  opts.faults = resil::FaultConfig::with_seed(7);
  opts.faults.task_exception_probability = 1.0;
  opts.faults.alloc_failure_probability = 0.0;
  opts.faults.poison_probability = 0.0;
  opts.retry.backoff_us = 1;
  const auto res = rt::execute(sg.g, 4, opts);
  EXPECT_EQ(res.recovery.faults_injected(), n);
  EXPECT_EQ(res.recovery.faults_injected(), res.recovery.retries());
  EXPECT_EQ(res.recovery.retries(), res.recovery.tasks_recovered());
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(sg.data[static_cast<std::size_t>(i)],
              2.0 * static_cast<double>(i) + 1.0);
}

TEST(WsScheduler, ChildFaultRollupAccountingIsExact) {
  // Parents spawn children through rt::TaskGroup; fault injection poisons
  // the parent's output AFTER the body (so the children have already run)
  // and the finite check converts that into a retry. The contract: the
  // fork/join scope is part of the parent's attempt — restore rolls the
  // slot back, the retry re-runs the whole body including every child
  // (exactly 2 runs per child: attempt 0 + the recovery attempt), and the
  // recovered values are exact.
  constexpr int kN = 16;
  constexpr int kKids = 3;
  std::vector<double> data(kN, 0.0);
  std::vector<std::array<double, kKids>> partials(kN);
  std::vector<std::atomic<long long>> kid_runs(kN);
  for (auto& c : kid_runs) c.store(0);
  rt::TaskGraph g;
  for (int i = 0; i < kN; ++i) {
    rt::TaskInfo t;
    t.name = "parent" + std::to_string(i);
    double* slot = &data[static_cast<std::size_t>(i)];
    auto* part = &partials[static_cast<std::size_t>(i)];
    auto* runs = &kid_runs[static_cast<std::size_t>(i)];
    t.fn = [slot, part, runs, i] {
      *slot = 1.0;
      rt::TaskGroup tg;
      for (int c = 0; c < kKids; ++c) {
        tg.spawn([part, runs, i, c] {
          runs->fetch_add(1, std::memory_order_relaxed);
          (*part)[static_cast<std::size_t>(c)] =
              0.5 * static_cast<double>(i + 1) + static_cast<double>(c);
        });
      }
      tg.sync();
      for (int c = 0; c < kKids; ++c)
        *slot += (*part)[static_cast<std::size_t>(c)];
    };
    rt::TaskOutput out;
    out.save = [slot] {
      std::vector<char> b(sizeof(double));
      std::memcpy(b.data(), slot, sizeof(double));
      return b;
    };
    out.restore = [slot](const std::vector<char>& b) {
      if (b.size() == sizeof(double))
        std::memcpy(slot, b.data(), sizeof(double));
    };
    out.finite = [slot] { return std::isfinite(*slot); };
    out.poison = [slot](std::uint64_t) {
      *slot = std::numeric_limits<double>::quiet_NaN();
      return true;
    };
    t.outputs.push_back(std::move(out));
    g.add_task(std::move(t), {},
               {{rt::make_key(0, static_cast<std::uint32_t>(i), 0)}});
  }
  auto opts = ws_options();
  opts.faults = resil::FaultConfig::with_seed(11);
  opts.faults.task_exception_probability = 0.0;
  opts.faults.alloc_failure_probability = 0.0;
  opts.faults.poison_probability = 1.0;
  opts.retry.backoff_us = 1;
  const auto res = rt::execute(g, 4, opts);
  EXPECT_EQ(res.recovery.faults_injected(), kN);
  EXPECT_EQ(res.recovery.faults_injected(), res.recovery.retries());
  EXPECT_EQ(res.recovery.retries(), res.recovery.tasks_recovered());
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(kid_runs[static_cast<std::size_t>(i)].load(), 2 * kKids)
        << "parent " << i;
    double want = 1.0;
    for (int c = 0; c < kKids; ++c)
      want += 0.5 * static_cast<double>(i + 1) + static_cast<double>(c);
    EXPECT_EQ(data[static_cast<std::size_t>(i)], want) << "parent " << i;
  }
}

TEST(WsScheduler, WatchdogConvertsStallIntoError) {
  rt::TaskGraph g;
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  {
    rt::TaskInfo t;
    t.name = "stuck";
    t.fn = [released] { released.wait(); };
    g.add_task(std::move(t), {}, {{rt::make_key(0, 0, 0)}});
  }
  auto opts = ws_options();
  opts.record_trace = false;
  opts.watchdog.deadline_ms = 100;
  opts.on_cancel = [&release] { release.set_value(); };
  try {
    rt::execute(g, 2, opts);
    FAIL() << "expected the watchdog error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("stuck"), std::string::npos);
  }
}

// --------------------------------- end-to-end Cholesky bitwise identity --

namespace {

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

TEST(WsScheduler, BandCholeskyFactorBitwiseMatchesSequentialOracle) {
  // The full BAND-DENSE-TLR factorization at 2 and 4 workers must produce
  // the same factor, bit for bit, as a 1-worker run — the same contract
  // the perturbation sweep enforces across chaos seeds.
  const int n = 160;
  const int b = 40;
  const double tol = 1e-6;
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DMatern, n, 17, 1e-1);
  auto factor_once = [&](int threads) {
    auto a = tlr::TlrMatrix::from_problem_parallel(
        prob, b, {tol, 1 << 30}, threads, 1, compress::Method::kCpqrSvd);
    core::CholeskyConfig cfg;
    cfg.acc = {tol, 1 << 30};
    cfg.band_size = 2;
    cfg.nthreads = threads;
    cfg.perturb = rt::PerturbConfig{};
    cfg.faults = resil::FaultConfig{};
    cfg.watchdog = resil::WatchdogConfig{};
    core::factorize(a, &prob, cfg);
    return assemble_lower_factor(a);
  };
  const dense::Matrix ref = factor_once(1);
  for (const int threads : {2, 4}) {
    const dense::Matrix got = factor_once(threads);
    double max_diff = 0.0;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        max_diff = std::max(max_diff, std::abs(got(i, j) - ref(i, j)));
    EXPECT_EQ(max_diff, 0.0) << "ws factor diverged at " << threads
                             << " threads";
  }
}

TEST(WsScheduler, SharedPackedBUnderContentionMatchesSerialCalls) {
  // Graph tasks three at a time on 4 workers, so idle workers steal
  // children and waiting parents run other tasks' children on their own
  // threads. Each nested 256-GEMM parent packs op(B) once for its
  // row-chunk children; each TRSM's right-hand-side children become
  // parents of nested GEMMs themselves; a 1024 x 64 GEMM with k = 300 >
  // kKC takes the per-child packing fallback into per-thread buffers,
  // and keeps children on offer long after the 256-GEMM's run out — a
  // shared B kept in a per-thread buffer gets overwritten here within a
  // few repetitions. Every result must match the serial call (no child
  // substrate) bit for bit under chaos seeds 1–8.
  using dense::Trans;
  struct Job {
    bool trsm = false;
    Trans ta = Trans::N, tb = Trans::N;
    dense::Side side = dense::Side::Left;
    dense::Matrix a, b, c;
  };
  Rng rng(23);
  const auto random = [&rng](int r, int c) {
    dense::Matrix x(r, c);
    for (int j = 0; j < c; ++j)
      for (int i = 0; i < r; ++i) x(i, j) = rng.uniform(-1.0, 1.0);
    return x;
  };
  const int n = 256;
  const Trans cases[][2] = {{Trans::N, Trans::N},
                            {Trans::N, Trans::T},
                            {Trans::T, Trans::N},
                            {Trans::T, Trans::T}};
  std::vector<Job> jobs;  // groups of three: shared B, fallback, TRSM
  for (int c = 0; c < 4; ++c) {
    for (const int k : {n, 300}) {
      Job j;
      j.ta = cases[c][0];
      j.tb = cases[c][1];
      const int m = k == n ? n : 4 * n;
      const int w = k == n ? n : 64;
      j.a = j.ta == Trans::N ? random(m, k) : random(k, m);
      j.b = j.tb == Trans::N ? random(k, w) : random(w, k);
      j.c = random(m, w);
      jobs.push_back(std::move(j));
    }
    Job t;
    t.trsm = true;
    t.side = c % 2 == 0 ? dense::Side::Left : dense::Side::Right;
    t.ta = c < 2 ? Trans::N : Trans::T;
    t.a = random(n, n);  // well-conditioned lower triangle
    for (int i = 0; i < n; ++i) t.a(i, i) = 4.0 + std::abs(t.a(i, i));
    t.c = random(n, n);
    jobs.push_back(std::move(t));
  }
  const auto run_job = [](const Job& j, dense::Matrix& out) {
    if (j.trsm) {
      dense::trsm(j.side, dense::Uplo::Lower, j.ta, dense::Diag::NonUnit,
                  0.5, j.a.view(), out.view());
    } else {
      dense::gemm(j.ta, j.tb, -0.75, j.a.view(), j.b.view(), 1.0,
                  out.view());
    }
  };
  std::vector<dense::Matrix> want;
  for (const Job& j : jobs) {
    want.push_back(j.c);
    run_job(j, want.back());
  }
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    rt::ExecOptions opts = ws_options();
    opts.perturb = rt::PerturbConfig::with_seed(seed);
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t g0 = 0; g0 < jobs.size(); g0 += 3) {
        std::vector<dense::Matrix> got;
        rt::TaskGraph g;
        for (std::size_t t = g0; t < g0 + 3; ++t) got.push_back(jobs[t].c);
        for (std::size_t t = 0; t < 3; ++t) {
          rt::TaskInfo info;
          info.name = "job" + std::to_string(g0 + t);
          info.fn = [&run_job, &jobs, &got, g0, t] {
            run_job(jobs[g0 + t], got[t]);
          };
          g.add_task(std::move(info), {}, {});
        }
        const rt::ExecResult res = rt::execute(g, 4, opts);
        EXPECT_GT(res.sched.nested_spawned, 0) << "seed " << seed;
        for (std::size_t t = 0; t < 3; ++t) {
          EXPECT_EQ(std::memcmp(got[t].data(), want[g0 + t].data(),
                                sizeof(double) * got[t].size()),
                    0)
              << "job " << g0 + t << " diverged at chaos seed " << seed;
        }
      }
    }
  }
}

TEST(WsScheduler, NestedBandCholeskyBitwiseMatchesSequentialOracle) {
  // Tile kernels at b = 192 put the dense-band macro-kernels above the
  // 64^3 nested cutoff, so the multi-worker runs exercise child-task
  // fan-out from inside the task bodies. The factor must stay bitwise
  // identical to the 1-worker oracle (no child substrate: every kernel is
  // one fat call) — the nested decomposition is branch-stable by
  // construction — also across an 8-seed chaos sweep, where children are
  // spawned and stolen under seeded victim order.
  const int n = 384;
  const int b = 192;
  const double tol = 1e-6;
  const auto prob =
      stars::make_problem(stars::ProblemKind::kSt3DMatern, n, 17, 1e-1);
  auto factor_once = [&](int threads, std::uint64_t chaos_seed) {
    auto a = tlr::TlrMatrix::from_problem_parallel(
        prob, b, {tol, 1 << 30}, threads, 1, compress::Method::kCpqrSvd);
    core::CholeskyConfig cfg;
    cfg.acc = {tol, 1 << 30};
    cfg.band_size = 2;
    cfg.nthreads = threads;
    cfg.perturb = chaos_seed != 0 ? rt::PerturbConfig::with_seed(chaos_seed)
                                  : rt::PerturbConfig{};
    cfg.faults = resil::FaultConfig{};
    cfg.watchdog = resil::WatchdogConfig{};
    core::factorize(a, &prob, cfg);
    return assemble_lower_factor(a);
  };
  const dense::Matrix ref = factor_once(1, 0);
  const auto expect_same = [&](const dense::Matrix& got,
                               const std::string& what) {
    double max_diff = 0.0;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        max_diff = std::max(max_diff, std::abs(got(i, j) - ref(i, j)));
    EXPECT_EQ(max_diff, 0.0) << what << " diverged from the oracle";
  };
  for (const int threads : {2, 4})
    expect_same(factor_once(threads, 0),
                "ws nested at " + std::to_string(threads) + " threads");
  for (std::uint64_t s = 1; s <= 8; ++s)
    expect_same(factor_once(4, s),
                "chaos seed " + std::to_string(s));
}
