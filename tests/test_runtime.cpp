// Unit tests for ptlr::rt — dataflow graph, executor, distributions,
// virtual-cluster simulator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "runtime/distribution.hpp"
#include "runtime/executor.hpp"
#include "runtime/nested.hpp"
#include "runtime/simulator.hpp"
#include "runtime/taskgraph.hpp"

using namespace ptlr::rt;

namespace {

TaskInfo named(const std::string& name) {
  TaskInfo t;
  t.name = name;
  return t;
}

}  // namespace

// ----------------------------------------------------------- TaskGraph ----

TEST(TaskGraph, ReadAfterWriteDependency) {
  TaskGraph g;
  const DataKey x = make_key(0, 1, 1);
  const auto w = g.add_task(named("w"), {}, {{x}});
  const auto r = g.add_task(named("r"), {{x}}, {});
  EXPECT_EQ(g.num_predecessors(r), 1);
  ASSERT_EQ(g.successors(w).size(), 1u);
  EXPECT_EQ(g.successors(w)[0], r);
}

TEST(TaskGraph, WriteAfterReadDependency) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  g.add_task(named("w0"), {}, {{x}});
  const auto r1 = g.add_task(named("r1"), {{x}}, {});
  const auto r2 = g.add_task(named("r2"), {{x}}, {});
  const auto w1 = g.add_task(named("w1"), {}, {{x}});
  // w1 must wait for both readers (anti-dependency).
  EXPECT_EQ(g.num_predecessors(w1), 2);
  EXPECT_EQ(g.successors(r1).back(), w1);
  EXPECT_EQ(g.successors(r2).back(), w1);
}

TEST(TaskGraph, WriteAfterWriteDependency) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  const auto w0 = g.add_task(named("w0"), {}, {{x}});
  const auto w1 = g.add_task(named("w1"), {}, {{x}});
  EXPECT_EQ(g.num_predecessors(w1), 1);
  EXPECT_EQ(g.successors(w0)[0], w1);
}

TEST(TaskGraph, ReadModifyWriteChainsSequentially) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 5; ++i) g.add_task(named("rmw"), {{x}}, {{x}});
  EXPECT_EQ(g.critical_path_length(), 5);
}

TEST(TaskGraph, IndependentReadersDoNotDependOnEachOther) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  g.add_task(named("w"), {}, {{x}});
  g.add_task(named("r1"), {{x}}, {});
  g.add_task(named("r2"), {{x}}, {});
  EXPECT_EQ(g.critical_path_length(), 2);  // w -> {r1, r2} in parallel
}

TEST(TaskGraph, DuplicateEdgesAreCollapsed) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0), y = make_key(0, 0, 1);
  const auto w = g.add_task(named("w"), {}, {{x, y}});
  const auto r = g.add_task(named("r"), {{x, y}}, {});
  EXPECT_EQ(g.successors(w).size(), 1u);
  EXPECT_EQ(g.num_predecessors(r), 1);
}

TEST(TaskGraph, KeyPackingSeparatesSpaces) {
  EXPECT_NE(make_key(0, 1, 2), make_key(1, 1, 2));
  EXPECT_NE(make_key(0, 1, 2), make_key(0, 2, 1));
}

TEST(TaskGraph, EdgeClassificationFollowsOwners) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  TaskInfo a = named("a");
  a.owner = 0;
  TaskInfo b = named("b");
  b.owner = 1;
  TaskInfo c = named("c");
  c.owner = 0;
  g.add_task(std::move(a), {}, {{x}});
  g.add_task(std::move(b), {{x}}, {});
  g.add_task(std::move(c), {}, {{x}});
  const auto s = g.classify_edges();
  EXPECT_EQ(s.remote, 2);  // a->b (RAW remote), b->c (WAR remote)
  EXPECT_EQ(s.local, 0);   // a->c WAW is covered transitively via b
}

// ------------------------------------------------------------ Executor ----

TEST(Executor, RunsAllTasksRespectingDependencies) {
  TaskGraph g;
  std::atomic<int> counter{0};
  std::vector<int> order(20, -1);
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 20; ++i) {
    TaskInfo t = named("t" + std::to_string(i));
    t.fn = [&, i] { order[static_cast<std::size_t>(i)] = counter++; };
    g.add_task(std::move(t), {{x}}, {{x}});  // serial chain
  }
  execute(g, 4);
  for (int i = 1; i < 20; ++i) EXPECT_GT(order[i], order[i - 1]);
}

TEST(Executor, ParallelTasksAllExecute) {
  TaskGraph g;
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    TaskInfo t = named("p");
    t.fn = [&] { count++; };
    g.add_task(std::move(t), {}, {});
  }
  execute(g, 4);
  EXPECT_EQ(count.load(), 100);
}

TEST(Executor, DiamondDependency) {
  TaskGraph g;
  const DataKey a = make_key(0, 0, 0), b = make_key(0, 0, 1),
                c = make_key(0, 0, 2);
  std::vector<int> log;
  std::mutex mu;
  auto push = [&](int v) {
    std::lock_guard<std::mutex> lock(mu);
    log.push_back(v);
  };
  TaskInfo t0 = named("src");
  t0.fn = [&] { push(0); };
  g.add_task(std::move(t0), {}, {{a}});
  TaskInfo t1 = named("l");
  t1.fn = [&] { push(1); };
  g.add_task(std::move(t1), {{a}}, {{b}});
  TaskInfo t2 = named("r");
  t2.fn = [&] { push(2); };
  g.add_task(std::move(t2), {{a}}, {{c}});
  TaskInfo t3 = named("sink");
  t3.fn = [&] { push(3); };
  g.add_task(std::move(t3), {{b, c}}, {});
  execute(g, 2);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.front(), 0);
  EXPECT_EQ(log.back(), 3);
}

TEST(Executor, PropagatesTaskExceptions) {
  TaskGraph g;
  TaskInfo t = named("boom");
  t.fn = [] { throw ptlr::Error("kernel failed"); };
  g.add_task(std::move(t), {}, {});
  EXPECT_THROW(execute(g, 2), ptlr::Error);
}

TEST(Executor, PriorityOrdersReadyTasksOnOneWorker) {
  // One worker drains its deque band by band, highest band first. The
  // priorities 0, 10, 20, 30 span the graph's range linearly, so each
  // task lands in its own band and the run order is exactly descending.
  // Chaos mode pinned off: band order is the unperturbed contract.
  TaskGraph g;
  std::vector<int> log;
  for (int i = 0; i < kSchedBands; ++i) {
    TaskInfo t = named("t");
    t.priority = 10.0 * i;  // later-inserted tasks have higher priority
    t.fn = [&log, i] { log.push_back(i); };
    g.add_task(std::move(t), {}, {});
  }
  const BandMap bands = BandMap::from_graph(g);
  for (int i = 0; i < kSchedBands; ++i)
    ASSERT_EQ(bands.band(10.0 * i), i) << "priority " << 10 * i;
  ExecOptions opts;
  opts.perturb = {};
  execute(g, 1, opts);
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kSchedBands));
  for (int i = 0; i < kSchedBands; ++i)
    EXPECT_EQ(log[static_cast<std::size_t>(i)], kSchedBands - 1 - i);
}

TEST(Executor, TraceRecordsEveryTask) {
  TaskGraph g;
  for (int i = 0; i < 10; ++i) {
    TaskInfo t = named("t");
    t.panel = i / 5;
    t.fn = [] {};
    g.add_task(std::move(t), {}, {});
  }
  auto res = execute(g, 2, /*record_trace=*/true);
  EXPECT_EQ(res.trace.size(), 10u);
  auto releases = panel_release_times(res.trace);
  EXPECT_EQ(releases.size(), 2u);
}

TEST(Executor, EmptyGraphIsFine) {
  TaskGraph g;
  auto res = execute(g, 2);
  EXPECT_EQ(res.trace.size(), 0u);
}

// -------------------------------------------------------- Distribution ----

TEST(Distribution, TwoDBlockCyclicCoversAllProcesses) {
  TwoDBlockCyclic d(2, 3);
  EXPECT_EQ(d.nproc(), 6);
  std::vector<int> hit(6, 0);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j <= i; ++j) {
      const int o = d.owner(i, j);
      ASSERT_GE(o, 0);
      ASSERT_LT(o, 6);
      hit[static_cast<std::size_t>(o)]++;
    }
  for (int o = 0; o < 6; ++o) EXPECT_GT(hit[o], 0);
}

TEST(Distribution, OneDBlockCyclicSpreadsSubdiagonal) {
  OneDBlockCyclic d(4);
  // Tiles along sub-diagonal i-j = 2: owners cycle over all processes.
  std::vector<int> owners;
  for (int j = 0; j < 8; ++j) owners.push_back(d.owner(j + 2, j));
  std::sort(owners.begin(), owners.end());
  EXPECT_EQ(std::unique(owners.begin(), owners.end()) - owners.begin(), 4);
}

TEST(Distribution, BandDistributionSplitsBandAndOffBand) {
  BandDistribution d(2, 2, 3);
  // On-band: row-based over all 4 processes.
  EXPECT_EQ(d.owner(5, 4), 5 % 4);
  EXPECT_EQ(d.owner(6, 4), 6 % 4);
  // Off-band: 2DBCDD.
  TwoDBlockCyclic ref(2, 2);
  EXPECT_EQ(d.owner(9, 2), ref.owner(9, 2));
}

TEST(Distribution, BandRowMappingKeepsPanelTrsmsParallel) {
  // Dense TRSMs of one panel (same column k, rows k+1..k+band) must land on
  // different processes — the paper's balanced panel rationale.
  BandDistribution d(2, 2, 4);
  const int k = 3;
  std::vector<int> owners;
  for (int i = k + 1; i < k + 4; ++i) owners.push_back(d.owner(i, k));
  std::sort(owners.begin(), owners.end());
  EXPECT_EQ(std::unique(owners.begin(), owners.end()) - owners.begin(), 3);
}

TEST(Distribution, SquareGridFactorization) {
  EXPECT_EQ(square_grid(16), (std::pair{4, 4}));
  EXPECT_EQ(square_grid(8), (std::pair{2, 4}));
  EXPECT_EQ(square_grid(7), (std::pair{1, 7}));
  EXPECT_EQ(square_grid(12), (std::pair{3, 4}));
}

// ----------------------------------------------------------- Simulator ----

TEST(Simulator, SerialChainMakespanIsSumOfDurations) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 10; ++i) {
    TaskInfo t = named("t");
    t.duration = 0.5;
    t.owner = 0;
    g.add_task(std::move(t), {{x}}, {{x}});
  }
  auto res = simulate(g, {1, 4, {}, false});
  EXPECT_NEAR(res.makespan, 5.0, 1e-12);
}

TEST(Simulator, IndependentTasksScaleWithCores) {
  auto build = [] {
    TaskGraph g;
    for (int i = 0; i < 16; ++i) {
      TaskInfo t = named("t");
      t.duration = 1.0;
      t.owner = 0;
      g.add_task(std::move(t), {}, {});
    }
    return g;
  };
  auto g1 = build();
  auto g4 = build();
  EXPECT_NEAR(simulate(g1, {1, 1, {}, false}).makespan, 16.0, 1e-12);
  EXPECT_NEAR(simulate(g4, {1, 4, {}, false}).makespan, 4.0, 1e-12);
}

TEST(Simulator, RemoteEdgePaysCommunication) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  TaskInfo a = named("a");
  a.duration = 1.0;
  a.owner = 0;
  a.output_bytes = 8'000'000;  // 1e-3 s at 8 GB/s
  g.add_task(std::move(a), {}, {{x}});
  TaskInfo b = named("b");
  b.duration = 1.0;
  b.owner = 1;
  g.add_task(std::move(b), {{x}}, {});
  CommModel comm;
  auto res = simulate(g, {2, 1, comm, false});
  EXPECT_NEAR(res.makespan, 2.0 + comm.cost(8'000'000), 1e-9);
  EXPECT_EQ(res.messages, 1);
  EXPECT_DOUBLE_EQ(res.message_bytes, 8e6);
}

TEST(Simulator, LocalEdgeIsFree) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  TaskInfo a = named("a");
  a.duration = 1.0;
  a.owner = 0;
  a.output_bytes = 1 << 20;
  g.add_task(std::move(a), {}, {{x}});
  TaskInfo b = named("b");
  b.duration = 1.0;
  b.owner = 0;
  g.add_task(std::move(b), {{x}}, {});
  auto res = simulate(g, {2, 1, {}, false});
  EXPECT_NEAR(res.makespan, 2.0, 1e-12);
  EXPECT_EQ(res.messages, 0);
}

TEST(Simulator, BroadcastCountsOneMessagePerDestinationProcess) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  TaskInfo a = named("src");
  a.duration = 0.1;
  a.owner = 0;
  a.output_bytes = 100;
  g.add_task(std::move(a), {}, {{x}});
  // 6 consumers on 3 distinct remote processes + 2 local ones.
  for (int i = 0; i < 6; ++i) {
    TaskInfo c = named("c");
    c.duration = 0.1;
    c.owner = (i % 4);
    g.add_task(std::move(c), {{x}}, {});
  }
  auto res = simulate(g, {4, 2, {}, false});
  EXPECT_EQ(res.messages, 3);  // PTG collective: procs 1, 2, 3 once each
}

TEST(Simulator, BusyTimeMatchesDurations) {
  TaskGraph g;
  for (int i = 0; i < 6; ++i) {
    TaskInfo t = named("t");
    t.duration = 2.0;
    t.owner = i % 2;
    g.add_task(std::move(t), {}, {});
  }
  auto res = simulate(g, {2, 3, {}, false});
  EXPECT_NEAR(res.busy[0], 6.0, 1e-12);
  EXPECT_NEAR(res.busy[1], 6.0, 1e-12);
  EXPECT_NEAR(res.occupancy(0, 3), 1.0, 1e-9);
}

TEST(Simulator, PriorityBreaksTies) {
  TaskGraph g;
  TaskInfo lo = named("lo");
  lo.duration = 1.0;
  lo.priority = 0.0;
  g.add_task(std::move(lo), {}, {});
  TaskInfo hi = named("hi");
  hi.duration = 1.0;
  hi.priority = 10.0;
  g.add_task(std::move(hi), {}, {});
  auto res = simulate(g, {1, 1, {}, true});
  ASSERT_EQ(res.trace.size(), 2u);
  EXPECT_LT(res.trace[1].start, res.trace[0].start);  // hi ran first
}

TEST(Simulator, TraceMatchesMakespan) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 5; ++i) {
    TaskInfo t = named("t");
    t.duration = 0.3;
    t.owner = i % 2;
    t.panel = i;
    g.add_task(std::move(t), {{x}}, {{x}});
  }
  auto res = simulate(g, {2, 1, {}, true});
  double max_end = 0;
  for (const auto& ev : res.trace) max_end = std::max(max_end, ev.end);
  EXPECT_NEAR(max_end, res.makespan, 1e-12);
  auto release = panel_release_times(res.trace);
  EXPECT_EQ(release.size(), 5u);
  for (std::size_t i = 1; i < 5; ++i) EXPECT_GT(release[i], release[i - 1]);
}

TEST(Simulator, InvalidOwnerThrows) {
  TaskGraph g;
  TaskInfo t = named("t");
  t.owner = 5;
  g.add_task(std::move(t), {}, {});
  EXPECT_THROW(simulate(g, {2, 1, {}, false}), ptlr::Error);
}

TEST(Simulator, MoreProcessesReduceMakespanOfWideGraph) {
  auto build = [](int nproc) {
    TaskGraph g;
    for (int i = 0; i < 64; ++i) {
      TaskInfo t = named("t");
      t.duration = 1.0;
      t.owner = i % nproc;
      g.add_task(std::move(t), {}, {});
    }
    return g;
  };
  auto g1 = build(1);
  auto g8 = build(8);
  const double m1 = simulate(g1, {1, 1, {}, false}).makespan;
  const double m8 = simulate(g8, {8, 1, {}, false}).makespan;
  EXPECT_NEAR(m1 / m8, 8.0, 1e-9);
}

// --------------------------------------------------- trace export ----

#include <cstdio>
#include <fstream>
#include <sstream>

TEST(Trace, ChromeExportContainsAllTasks) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 4; ++i) {
    TaskInfo t = named("step" + std::to_string(i));
    t.duration = 0.25;
    t.panel = i;
    g.add_task(std::move(t), {{x}}, {{x}});
  }
  auto res = simulate(g, {1, 1, {}, true});
  const std::string path = "/tmp/ptlr_trace_test.json";
  write_chrome_trace(res.trace, g, path);
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string body = ss.str();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(body.find("step" + std::to_string(i)), std::string::npos);
  }
  EXPECT_NE(body.find("\"ph\": \"X\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, ChromeExportBadPathThrows) {
  TaskGraph g;
  std::vector<TraceEvent> empty;
  EXPECT_THROW(write_chrome_trace(empty, g, "/nonexistent/dir/x.json"),
               ptlr::Error);
}

TEST(Distribution, ColumnBasedBandForUpperTriangular) {
  BandDistribution d(2, 2, 3, BandOrientation::kColumnBased);
  // On-band (|i-j| < 3): owner follows the column index.
  EXPECT_EQ(d.owner(4, 5), 5 % 4);
  EXPECT_EQ(d.owner(4, 6), 6 % 4);
  // Off-band falls back to 2DBCDD.
  TwoDBlockCyclic ref(2, 2);
  EXPECT_EQ(d.owner(2, 9), ref.owner(2, 9));
}

TEST(Trace, KindBreakdownAggregates) {
  std::vector<TraceEvent> trace;
  for (int i = 0; i < 6; ++i) {
    TraceEvent ev;
    ev.task = i;
    ev.kind = i % 2;
    ev.start = 0.0;
    ev.end = i % 2 ? 2.0 : 1.0;
    trace.push_back(ev);
  }
  auto bd = kind_breakdown(trace);
  ASSERT_EQ(bd.size(), 2u);
  EXPECT_EQ(bd[0].kind, 1);  // sorted by time: 3 * 2.0 = 6.0 first
  EXPECT_EQ(bd[0].count, 3);
  EXPECT_DOUBLE_EQ(bd[0].seconds, 6.0);
  EXPECT_DOUBLE_EQ(bd[1].seconds, 3.0);
}

TEST(Simulator, TreeBroadcastDelaysFarDestinations) {
  CommModel flat, tree;
  tree.tree_broadcast = true;
  // First destination: one hop either way.
  EXPECT_DOUBLE_EQ(tree.broadcast_cost(1000, 0), flat.cost(1000));
  // Destination index 5 sits at depth 3 of the binomial tree.
  EXPECT_DOUBLE_EQ(tree.broadcast_cost(1000, 5), 3 * flat.cost(1000));
  // Flat model charges every destination the same.
  EXPECT_DOUBLE_EQ(flat.broadcast_cost(1000, 5), flat.cost(1000));
}

TEST(Simulator, TreeBroadcastIncreasesWideBroadcastMakespan) {
  auto build = [] {
    TaskGraph g;
    const DataKey x = make_key(0, 0, 0);
    TaskInfo src = named("src");
    src.duration = 0.1;
    src.owner = 0;
    src.output_bytes = 80'000'000;  // 10 ms at 8 GB/s
    g.add_task(std::move(src), {}, {{x}});
    for (int p = 1; p < 16; ++p) {
      TaskInfo c = named("c");
      c.duration = 0.1;
      c.owner = p;
      g.add_task(std::move(c), {{x}}, {});
    }
    return g;
  };
  auto g1 = build();
  auto g2 = build();
  SimConfig flat{16, 1, {}, false};
  SimConfig tree{16, 1, {}, false};
  tree.comm.tree_broadcast = true;
  EXPECT_GT(simulate(g2, tree).makespan, simulate(g1, flat).makespan);
}

// ------------------------------------------- heterogeneous simulation ----

TEST(Simulator, AcceleratorSpeedsUpPreferringTasks) {
  auto build = [] {
    TaskGraph g;
    const DataKey x = make_key(0, 0, 0);
    for (int i = 0; i < 8; ++i) {
      TaskInfo t = named("dense");
      t.duration = 1.0;
      t.device_class = 1;
      g.add_task(std::move(t), {{x}}, {{x}});  // serial dense chain
    }
    return g;
  };
  auto g_cpu = build();
  auto g_gpu = build();
  SimConfig cpu{1, 2, {}, false};
  SimConfig gpu{1, 2, {}, false};
  gpu.accel_per_proc = 1;
  gpu.accel_speedup = 4.0;
  EXPECT_NEAR(simulate(g_cpu, cpu).makespan, 8.0, 1e-12);
  EXPECT_NEAR(simulate(g_gpu, gpu).makespan, 2.0, 1e-12);
}

TEST(Simulator, Class0TasksNeverUseAccelerators) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    TaskInfo t = named("lr");
    t.duration = 1.0;
    t.device_class = 0;
    g.add_task(std::move(t), {}, {});
  }
  SimConfig cfg{1, 1, {}, true};
  cfg.accel_per_proc = 4;
  cfg.accel_speedup = 100.0;
  auto res = simulate(g, cfg);
  EXPECT_NEAR(res.makespan, 4.0, 1e-12);  // single CPU core does them all
  for (const auto& ev : res.trace) EXPECT_EQ(ev.worker, 0);
}

TEST(Simulator, DenseTasksFallBackToCpuWhenAcceleratorsBusy) {
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    TaskInfo t = named("dense");
    t.duration = 1.0;
    t.device_class = 1;
    g.add_task(std::move(t), {}, {});
  }
  SimConfig cfg{1, 3, {}, false};
  cfg.accel_per_proc = 1;
  cfg.accel_speedup = 2.0;
  // 1 accel (0.5 s each) + 3 CPUs (1 s each): all 4 run at t=0, done at 1.
  EXPECT_NEAR(simulate(g, cfg).makespan, 1.0, 1e-12);
}

// ------------------------------------------------ MPI-lite mailboxes ----

#include <thread>

#include "runtime/mailbox.hpp"

TEST(Mailbox, SendRecvRoundTrip) {
  dist::Communicator comm(2);
  std::vector<char> msg{'h', 'i'};
  comm.send(0, 1, dist::make_tag(0, 1, 2, 3), msg);
  auto got = comm.recv(1, dist::make_tag(0, 1, 2, 3));
  EXPECT_EQ(got, msg);
  EXPECT_EQ(comm.stats().messages, 1);
  EXPECT_EQ(comm.stats().bytes, 2);
}

TEST(Mailbox, RecvBlocksUntilSendArrives) {
  dist::Communicator comm(2);
  ptlr::Bytes got;
  std::thread receiver([&] { got = comm.recv(1, 42); });
  std::thread sender([&] { comm.send(0, 1, 42, {'x'}); });
  sender.join();
  receiver.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 'x');
}

TEST(Mailbox, TagsKeepMessagesSeparate) {
  dist::Communicator comm(1);
  comm.send(0, 0, 1, {'a'});
  comm.send(0, 0, 2, {'b'});
  EXPECT_EQ(comm.recv(0, 2)[0], 'b');
  EXPECT_EQ(comm.recv(0, 1)[0], 'a');
  EXPECT_EQ(comm.stats().messages, 0);  // self-sends are not counted
}

TEST(Mailbox, AbortWakesBlockedReceiver) {
  dist::Communicator comm(2);
  std::thread receiver([&] {
    EXPECT_THROW(comm.recv(1, 7), ptlr::Error);
  });
  comm.abort();
  receiver.join();
}

TEST(Mailbox, AbortWakesEveryBlockedReceiver) {
  // abort() publishes its flag under the mailbox mutex, so no receiver —
  // whether it is parked already or still between its flag check and its
  // wait — can miss the wake. Single- and multi-tag receivers alike throw
  // the abort error; a lost wake would surface as the watchdog's instead.
  ptlr::resil::WatchdogConfig watchdog;
  watchdog.deadline_ms = 5000;
  const auto expect_abort = [](auto&& receive) {
    try {
      receive();
      ADD_FAILURE() << "receive returned after abort";
    } catch (const ptlr::Error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("communicator aborted", 0), 0u)
          << e.what();
    }
  };
  for (int round = 0; round < 20; ++round) {
    dist::Mailbox mb(0, watchdog);
    std::atomic<int> woke{0};
    std::vector<std::thread> receivers;
    for (std::uint64_t tag = 1; tag <= 3; ++tag)
      receivers.emplace_back([&, tag] {
        expect_abort([&] { mb.recv(tag); });
        woke++;
      });
    receivers.emplace_back([&] {
      expect_abort([&] { mb.recv_any({4, 5}); });
      woke++;
    });
    if (round % 2 == 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    mb.abort();
    for (auto& t : receivers) t.join();
    EXPECT_EQ(woke.load(), 4) << "round " << round;
    EXPECT_TRUE(mb.aborted());
  }
}

// ------------------------------------------------- work stealing ----

TEST(Simulator, WorkStealingBalancesSkewedLoad) {
  // All work initially on process 0; stealing lets the idle peers help.
  auto build = [] {
    TaskGraph g;
    for (int i = 0; i < 32; ++i) {
      TaskInfo t = named("w");
      t.duration = 1.0;
      t.owner = 0;
      t.output_bytes = 800;  // cheap to ship
      g.add_task(std::move(t), {}, {});
    }
    return g;
  };
  auto g0 = build();
  auto g1 = build();
  SimConfig off{4, 2, {}, false};
  SimConfig on{4, 2, {}, false};
  on.work_stealing = true;
  const double t_off = simulate(g0, off).makespan;
  const double t_on = simulate(g1, on).makespan;
  EXPECT_NEAR(t_off, 16.0, 1e-9);  // 32 tasks on 2 cores
  EXPECT_LT(t_on, 0.5 * t_off);    // peers absorb most of the skew
}

TEST(Simulator, WorkStealingPaysCommunication) {
  // One expensive-to-ship task: stealing must charge the transfer.
  TaskGraph g;
  TaskInfo a = named("a");
  a.duration = 1.0;
  a.owner = 0;
  g.add_task(std::move(a), {}, {});
  TaskInfo b = named("b");
  b.duration = 1.0;
  b.owner = 0;
  b.output_bytes = 8'000'000'000ull;  // 1 s at 8 GB/s
  g.add_task(std::move(b), {}, {});
  SimConfig on{2, 1, {}, true};
  on.work_stealing = true;
  auto res = simulate(g, on);
  // Proc 1 steals task b but pays ~1 s shipping: no worse than serial.
  EXPECT_LE(res.makespan, 2.0 + 1e-3);  // + latency
  EXPECT_GE(res.makespan, 1.0);
}

TEST(Simulator, WorkStealingPreservesDependencies) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 10; ++i) {
    TaskInfo t = named("chain");
    t.duration = 0.5;
    t.owner = 0;
    g.add_task(std::move(t), {{x}}, {{x}});
  }
  SimConfig on{4, 1, {}, true};
  on.work_stealing = true;
  auto res = simulate(g, on);
  // A serial chain cannot go faster than its length, stealing or not.
  EXPECT_GE(res.makespan, 5.0 - 1e-9);
  for (std::size_t i = 1; i < res.trace.size(); ++i)
    EXPECT_GE(res.trace[i].start + 1e-12, res.trace[i - 1].end);
}

// ------------------------------------------- graph validation ----

TEST(TaskGraph, AddDependencyCreatesControlEdge) {
  TaskGraph g;
  const auto a = g.add_task(named("a"), {}, {});
  const auto b = g.add_task(named("b"), {}, {});
  g.add_dependency(a, b);
  EXPECT_EQ(g.num_predecessors(b), 1);
  ASSERT_EQ(g.successors(a).size(), 1u);
  EXPECT_EQ(g.successors(a)[0], b);
  g.validate();  // forward control edges are a well-formed graph
}

TEST(TaskGraph, AddDependencyRejectsDanglingAndSelf) {
  TaskGraph g;
  const auto a = g.add_task(named("a"), {}, {});
  EXPECT_THROW(g.add_dependency(a, 7), ptlr::Error);
  EXPECT_THROW(g.add_dependency(-1, a), ptlr::Error);
  EXPECT_THROW(g.add_dependency(a, a), ptlr::Error);
}

TEST(TaskGraph, ValidateAcceptsDataflowGraphs) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0), y = make_key(0, 0, 1);
  g.add_task(named("w"), {}, {{x}});
  g.add_task(named("r"), {{x}}, {{y}});
  g.add_task(named("rw"), {{x, y}}, {{x}});
  g.validate();
}

TEST(TaskGraph, ValidateRejectsCycles) {
  TaskGraph g;
  const auto a = g.add_task(named("a"), {}, {});
  const auto b = g.add_task(named("b"), {}, {});
  const auto c = g.add_task(named("c"), {}, {});
  g.add_dependency(a, b);
  g.add_dependency(b, c);
  g.add_dependency(c, a);
  try {
    g.validate();
    FAIL() << "cycle not detected";
  } catch (const ptlr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos);
  }
}

TEST(Executor, RejectsCyclicGraphInsteadOfHanging) {
  // Before validation, this graph deadlocked the pool: no task ever became
  // ready, workers waited forever.
  TaskGraph g;
  std::atomic<int> ran{0};
  for (int i = 0; i < 2; ++i) {
    TaskInfo t = named("loop" + std::to_string(i));
    t.fn = [&] { ran++; };
    g.add_task(std::move(t), {}, {});
  }
  g.add_dependency(0, 1);
  g.add_dependency(1, 0);
  EXPECT_THROW(execute(g, 2), ptlr::Error);
  EXPECT_EQ(ran.load(), 0);  // rejected before launching workers
}

// ------------------------------------- exception propagation ----

TEST(Executor, MidGraphThrowRethrowsAfterPoolDrains) {
  // A wide stage with one poisoned task; everything downstream of the
  // thrower must not run, the pool must drain (no deadlocked workers), and
  // the original exception must surface on the calling thread.
  TaskGraph g;
  const DataKey poison = make_key(0, 0, 99);
  std::atomic<int> ran{0};
  std::atomic<int> downstream{0};
  for (int i = 0; i < 16; ++i) {
    TaskInfo t = named("w" + std::to_string(i));
    t.fn = [&] { ran++; };
    g.add_task(std::move(t), {}, {});
  }
  TaskInfo boom = named("boom");
  boom.fn = [] { throw ptlr::NumericalError("tile not SPD", 3); };
  g.add_task(std::move(boom), {}, {{poison}});
  for (int i = 0; i < 8; ++i) {
    TaskInfo t = named("after" + std::to_string(i));
    t.fn = [&] { downstream++; };
    g.add_task(std::move(t), {{poison}}, {});
  }
  try {
    execute(g, 4);
    FAIL() << "exception was swallowed";
  } catch (const ptlr::NumericalError& e) {
    EXPECT_EQ(e.info(), 3);  // concrete type and payload preserved
  }
  EXPECT_EQ(downstream.load(), 0);
  EXPECT_LE(ran.load(), 16);
}

TEST(Executor, ConcurrentThrowsPropagateExactlyOne) {
  TaskGraph g;
  for (int i = 0; i < 12; ++i) {
    TaskInfo t = named("boom" + std::to_string(i));
    t.fn = [i] { throw ptlr::Error("boom " + std::to_string(i)); };
    g.add_task(std::move(t), {}, {});
  }
  EXPECT_THROW(execute(g, 4), ptlr::Error);
}

TEST(Executor, RepeatedFailingRunsLeaveNoStuckState) {
  // Shake out leaked workers / poisoned synchronization: a failing graph
  // executed many times must keep draining promptly.
  for (int round = 0; round < 20; ++round) {
    TaskGraph g;
    const DataKey x = make_key(0, 0, 0);
    TaskInfo a = named("ok");
    a.fn = [] {};
    g.add_task(std::move(a), {}, {{x}});
    TaskInfo b = named("boom");
    b.fn = [] { throw ptlr::Error("round failure"); };
    g.add_task(std::move(b), {{x}}, {{x}});
    TaskInfo c = named("never");
    c.fn = [] { FAIL() << "task after the thrower ran"; };
    g.add_task(std::move(c), {{x}}, {});
    EXPECT_THROW(execute(g, 3), ptlr::Error);
  }
}

TEST(Executor, ExceptionPropagatesUnderPerturbation) {
  // Regression test for a lost wakeup on the failure path: repeated a few
  // thousand times, a worker that misses the cancellation wake parks
  // forever. The watchdog turns such a stall into its own error, so the
  // test fails on it instead of hanging — the error that surfaces must be
  // the task's.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TaskGraph g;
    std::atomic<int> ran{0};
    for (int i = 0; i < 24; ++i) {
      TaskInfo t = named("w" + std::to_string(i));
      t.fn = [&] { ran++; };
      g.add_task(std::move(t), {}, {});
    }
    TaskInfo boom = named("boom");
    boom.fn = [] { throw ptlr::Error("chaos boom"); };
    g.add_task(std::move(boom), {}, {});
    ExecOptions opts;
    opts.perturb = PerturbConfig::with_seed(seed);
    opts.watchdog.deadline_ms = 5000;
    try {
      execute(g, 4, opts);
      ADD_FAILURE() << "seed " << seed << ": exception was swallowed";
    } catch (const ptlr::Error& e) {
      EXPECT_STREQ(e.what(), "chaos boom") << "seed " << seed;
    }
  }
}

TEST(Executor, ChaosModeRunsOnWorkStealing) {
  // Chaos mode perturbs the one engine every run uses: parents spawn
  // nested children into their worker deques, which only the
  // work-stealing engine provides. A silent switch to some other engine
  // under a perturbation seed would zero nested_spawned.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TaskGraph g;
    std::atomic<int> children{0};
    for (int i = 0; i < 16; ++i) {
      TaskInfo t = named("parent" + std::to_string(i));
      t.fn = [&children] {
        TaskGroup tg;
        for (int c = 0; c < 4; ++c) tg.spawn([&children] { children++; });
        tg.sync();
      };
      g.add_task(std::move(t), {}, {});
    }
    ExecOptions opts;
    opts.perturb = PerturbConfig::with_seed(seed);
    const ExecResult res = execute(g, 4, opts);
    EXPECT_EQ(children.load(), 16 * 4) << "seed " << seed;
    EXPECT_GT(res.sched.nested_spawned, 0) << "seed " << seed;
  }
}

TEST(Executor, OneWorkerRunSpawnsNoNestedChildren) {
  // A lone worker gets no nested-child substrate — nobody could steal
  // its children — so every TaskGroup spawn runs at the spawn point, in
  // order, with or without chaos mode. That keeps a one-worker run the
  // bitwise oracle for the multi-worker ones.
  for (std::uint64_t seed = 0; seed <= 4; ++seed) {
    TaskGraph g;
    std::vector<int> log;
    for (int i = 0; i < 8; ++i) {
      TaskInfo t = named("parent" + std::to_string(i));
      t.fn = [&log, i] {
        TaskGroup tg;
        for (int c = 0; c < 4; ++c)
          tg.spawn([&log, i, c] { log.push_back(4 * i + c); });
        tg.sync();
      };
      g.add_task(std::move(t), {}, {});
    }
    ExecOptions opts;
    opts.perturb =
        seed == 0 ? PerturbConfig{} : PerturbConfig::with_seed(seed);
    const ExecResult res = execute(g, 1, opts);
    EXPECT_EQ(res.sched.nested_spawned, 0) << "seed " << seed;
    ASSERT_EQ(log.size(), 32u) << "seed " << seed;
    for (std::size_t k = 0; k < log.size(); k += 4)
      for (std::size_t c = 1; c < 4; ++c)
        EXPECT_EQ(log[k + c], log[k] + static_cast<int>(c))
            << "seed " << seed << ": children of one parent out of order";
  }
}

// ------------------------------------------------- chaos mode ----

TEST(Executor, PerturbedRunStillRespectsSerialChain) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TaskGraph g;
    std::atomic<int> counter{0};
    std::vector<int> order(20, -1);
    const DataKey x = make_key(0, 0, 0);
    for (int i = 0; i < 20; ++i) {
      TaskInfo t = named("t" + std::to_string(i));
      t.fn = [&, i] { order[static_cast<std::size_t>(i)] = counter++; };
      g.add_task(std::move(t), {{x}}, {{x}});  // serial chain
    }
    ExecOptions opts;
    opts.perturb = PerturbConfig::with_seed(seed);
    execute(g, 4, opts);
    for (int i = 1; i < 20; ++i) EXPECT_GT(order[i], order[i - 1]);
  }
}

TEST(Executor, TraceStampsGiveHappensBeforeOrder) {
  TaskGraph g;
  const DataKey x = make_key(0, 0, 0);
  for (int i = 0; i < 10; ++i) {
    TaskInfo t = named("t");
    t.fn = [] {};
    g.add_task(std::move(t), {{x}}, {{x}});
  }
  ExecOptions opts;
  opts.record_trace = true;
  auto res = execute(g, 3, opts);
  ASSERT_EQ(res.trace.size(), 10u);
  for (std::size_t i = 1; i < res.trace.size(); ++i)
    EXPECT_LT(res.trace[i - 1].seq_end, res.trace[i].seq_start);
}

TEST(Mailbox, PerturbedCommunicatorDeliversInTagOrder) {
  // Delays reorder cross-tag arrival but must never corrupt or reorder the
  // per-(tag, rank) FIFO.
  dist::Communicator comm(2, PerturbConfig::with_seed(5));
  for (char c = 0; c < 10; ++c) comm.send(0, 1, 42, {c});
  for (char c = 0; c < 10; ++c) EXPECT_EQ(comm.recv(1, 42)[0], c);
}
