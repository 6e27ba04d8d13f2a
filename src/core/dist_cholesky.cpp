#include "core/dist_cholesky.hpp"

#include <csignal>
#include <cstdlib>
#include <exception>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/bcast_tree.hpp"
#include "core/cholesky_graph.hpp"
#include "runtime/executor.hpp"
#include "tlr/io.hpp"

namespace ptlr::core {

namespace {

// The message tag of a task's output tile: space 0 for a factored
// diagonal tile, 1 for a panel tile, keyed by the producing panel — the
// step the checkpoint frontier and the wire's REJOIN replay count in.
std::uint64_t tile_tag(const rt::TaskInfo& t) {
  return rt::dist::make_tag(t.ti == t.tj ? 0 : 1,
                            static_cast<std::uint32_t>(t.panel),
                            static_cast<std::uint32_t>(t.ti),
                            static_cast<std::uint32_t>(t.tj));
}

// One rank's share of the factorization: the tasks of the one
// build_cholesky_graph graph that `dist` assigns to this rank, run on a
// one-worker executor. Every REMOTE edge of the graph becomes a send task
// after the producer and an external-input task on the consumer's rank,
// which the progress loop (core/tile_flow.hpp) releases when the tile
// arrives. Written against the transport seam only, so the same code runs
// over in-process rank threads and over the socket mesh. `a` is the
// rank's replica: owned tiles are factored in place, received tiles are
// installed in their slots.
class RankRun {
 public:
  RankRun(rt::dist::Transport& t, const rt::Distribution& dist,
          tlr::TlrMatrix& a, const compress::Accuracy& acc,
          const RankRecoveryOptions& rec, const DistCommOptions& opts)
      : t_(t), rank_(t.rank()), dist_(dist), a_(a), rec_(rec), opts_(opts) {
    GraphOptions gopt;
    gopt.acc = acc;
    gopt.dist = &dist;
    g_ = build_cholesky_graph(a, gopt);
    stats_.rank = rank_;
    dests_ = broadcast_dests(g_);
  }
  // Task bodies and the progress loop hold `this`.
  RankRun(const RankRun&) = delete;
  RankRun& operator=(const RankRun&) = delete;

  void run() {
    int k0 = 0;
    if (rec_.epoch > 0) k0 = restore();

    // The injected whole-process death: every rank computes the same
    // (victim, step) plan from the fault seed. Only the first incarnation
    // (epoch 0) kills, so a respawn cannot re-kill itself.
    int kill_step = -1;
    const resil::FaultInjector injector(rec_.faults);
    if (rec_.epoch == 0 && injector.enabled()) {
      const auto plan = injector.rank_kill(dist_.nproc(), a_.nt());
      if (plan && plan->victim == rank_) kill_step = plan->step;
    }

    TileFlow flow(t_, stats_);  // forwards and arrivals; sends: sent_
    rt::TaskGraph share = build_share(k0, kill_step, flow);

    // The progress loop is the executor's feed, on a thread of its own,
    // while this thread runs the one worker; a failure on either side
    // aborts the transport, which wakes the loop (and the peers).
    rt::ExecOptions eo;
    eo.feed = [&flow](const std::function<bool(rt::TaskId)>& release) {
      flow.run(release);
    };
    eo.on_cancel = [this] { t_.abort(); };
    eo.record_trace = true;  // task intervals: the worker's busy time
    const rt::ExecResult res = rt::execute(share, 1, eo);

    stats_.messages += sent_.messages;
    stats_.bytes += sent_.bytes;
    stats_.root_egress_bytes = sent_.root_egress_bytes;
    // One worker, so whenever it ran no task it waited for tiles.
    stats_.blocked_recv_seconds = res.seconds;
    for (const rt::TraceEvent& ev : res.trace)
      stats_.blocked_recv_seconds -= ev.end - ev.start;

    // A victim that owned no task from its planned step on dies here,
    // before its drain.
    if (kill_step >= 0) std::raise(SIGKILL);
  }

  [[nodiscard]] const RankCommStats& comm_stats() const { return stats_; }

 private:
  [[nodiscard]] int owner(rt::TaskId t) const { return g_.info(t).owner; }

  /// Send task `p`'s output tile to the ranks that consume it.
  void broadcast(rt::TaskId p) {
    const rt::TaskInfo& info = g_.info(p);
    const std::set<int>& dests = dests_[static_cast<std::size_t>(p)];
    if (dests.empty()) return;  // dests never holds this rank itself
    const std::uint64_t tag = tile_tag(info);
    // Serialized exactly once into a refcounted buffer: every queued send,
    // retransmit copy and replay log entry shares it.
    const Bytes bytes = tlr::tile_to_bytes(a_.at(info.ti, info.tj));
    const auto send = [&](int to) {
      t_.send(to, tag, bytes);
      sent_.messages += 1;
      sent_.bytes += static_cast<long long>(bytes.size());
      sent_.root_egress_bytes += static_cast<long long>(bytes.size());
    };
    if (opts_.tree) {
      // Root-offload binomial tree: the origin transmits ONE copy; the
      // receivers forward it down the deterministic tree.
      send(bcast::first_hop(tag, rank_, dests));
    } else {
      // Flat: one unicast per destination rank (the PTG collective
      // semantics, kept as the comparison baseline under PTLR_BCAST=flat).
      for (const int d : dests) send(d);
    }
  }

  /// Respawn path: load the checkpoint (if one exists), re-broadcast every
  /// owned tile factored before the frontier — peers may have lost those
  /// messages with the old process; receivers that already have them
  /// discard the re-sends by deterministic-id dedup — and return the
  /// frontier, the first panel to run.
  int restore() {
    resil::note(resil::ResilienceEvent::kRankRestart,
                "rank " + std::to_string(rank_) + " epoch " +
                    std::to_string(rec_.epoch));
    const std::string path = rec_.ckpt.path_of(rank_);
    // No file (frontier 0): died before the first checkpoint; replay all.
    if (!rec_.ckpt.enabled() || peek_checkpoint_frontier(path) == 0) return 0;
    const auto k0 =
        static_cast<int>(load_rank_checkpoint(path, a_, dist_, rank_));
    resil::note(resil::ResilienceEvent::kCkptLoad,
                "rank " + std::to_string(rank_) + " frontier " +
                    std::to_string(k0));
    for (rt::TaskId p = 0; p < g_.size(); ++p)
      if (owner(p) == rank_ && g_.info(p).panel < k0) broadcast(p);
    return k0;
  }

  /// This rank's subgraph over the panels from `k0` on: copies of its own
  /// tasks, a send task after each one whose tile other ranks read, an
  /// external-input receive task for each remote tile it reads (registered
  /// with `flow`), and — with checkpointing on — one control task per
  /// frontier.
  rt::TaskGraph build_share(int k0, int kill_step, TileFlow& flow) {
    const int n = g_.size();
    std::vector<std::vector<rt::TaskId>> preds(static_cast<std::size_t>(n));
    for (rt::TaskId p = 0; p < n; ++p)
      for (const rt::TaskId s : g_.successors(p))
        preds[static_cast<std::size_t>(s)].push_back(p);
    // Sends, receives and checkpoints run in the top priority band (3):
    // they are cheap and other ranks, or this rank's consumers, wait on
    // them.
    const auto aux = [&](std::string name, int panel) {
      rt::TaskInfo t;
      t.name = std::move(name);
      t.kind = -1;
      t.panel = panel;
      t.priority = 3.0;
      t.owner = rank_;
      return t;
    };

    rt::TaskGraph share;
    // Id in `share` of an owned task's copy, or of the receive task
    // standing in for a remote producer; -1 for tasks not in the share.
    std::vector<rt::TaskId> local(static_cast<std::size_t>(n), -1);
    // Checkpoint barrier: the control task of frontier F waits for every
    // owned task of panels < F, and every owned task of panels >= F waits
    // for it, so the saved tiles are exactly "panels < F applied".
    const int every = rec_.ckpt.enabled() ? rec_.ckpt.every : 0;
    int frontier = every > 0 ? (k0 / every + 1) * every : a_.nt();
    rt::TaskId ctrl = -1;
    std::vector<rt::TaskId> since_ctrl;
    const auto add_owned = [&](rt::TaskInfo info) {
      const rt::TaskId id = share.add_task(std::move(info), {}, {});
      if (ctrl >= 0) share.add_dependency(ctrl, id);
      if (every > 0) since_ctrl.push_back(id);
      return id;
    };

    for (rt::TaskId p = 0; p < n; ++p) {
      const rt::TaskInfo& info = g_.info(p);
      if (info.panel < k0) continue;
      for (; frontier < a_.nt() && info.panel >= frontier;
           frontier += every) {
        rt::TaskInfo c = aux("checkpoint(" + std::to_string(frontier) + ")",
                             frontier);
        c.fn = [this, f = frontier] { checkpoint(f); };
        const rt::TaskId id = share.add_task(std::move(c), {}, {});
        if (ctrl >= 0) share.add_dependency(ctrl, id);
        for (const rt::TaskId t : since_ctrl) share.add_dependency(t, id);
        since_ctrl.clear();
        ctrl = id;
      }

      if (owner(p) != rank_) {
        if (dests_[static_cast<std::size_t>(p)].count(rank_) == 0) continue;
        // The progress loop hands the payload over; the task installs the
        // tile on the rank's worker, which keeps tile storage in the
        // allocator arena of the thread that owns the replica.
        const std::size_t slot = arrived_.size();
        arrived_.emplace_back();
        rt::TaskInfo r = aux("recv(" + info.name + ")", info.panel);
        r.external_input = true;
        r.fn = [this, slot, i = info.ti, j = info.tj] {
          a_.at(i, j) = tlr::tile_from_bytes(arrived_[slot]);
          arrived_[slot] = Bytes{};
        };
        const rt::TaskId id = share.add_task(std::move(r), {}, {});
        local[static_cast<std::size_t>(p)] = id;
        const std::uint64_t tag = tile_tag(info);
        std::vector<int> children;
        if (opts_.tree)
          children = bcast::children(tag, owner(p),
                                     dests_[static_cast<std::size_t>(p)],
                                     rank_);
        flow.expect(tag, std::move(children), id,
                    [this, slot](const Bytes& bytes) {
                      arrived_[slot] = bytes;
                    });
        continue;
      }

      rt::TaskInfo mine = info;
      // The rank's one worker runs its share in lookahead order: the panel
      // factorization and the updates of the next panel's column — what
      // the other ranks wait for — first (band 2), then the column after
      // (band 1), then the rest (band 0).
      const int ahead = info.tj - info.panel;  // 0 for POTRF/TRSM
      mine.priority = ahead <= 1 ? 2.0 : (ahead == 2 ? 1.0 : 0.0);
      // The injected kill fires at the first owned task of its planned
      // step: no cleanup, no BYE, exactly what a node crash looks like to
      // the mesh.
      if (kill_step >= 0 && info.panel >= kill_step)
        mine.fn = [] { std::raise(SIGKILL); };
      const rt::TaskId id = add_owned(std::move(mine));
      local[static_cast<std::size_t>(p)] = id;
      for (const rt::TaskId q : preds[static_cast<std::size_t>(p)])
        if (local[static_cast<std::size_t>(q)] >= 0)
          share.add_dependency(local[static_cast<std::size_t>(q)], id);
      if (!dests_[static_cast<std::size_t>(p)].empty()) {
        // A task of its own, outside the fault-retried kernel body, so a
        // retry never re-sends a tag.
        rt::TaskInfo s = aux("send(" + info.name + ")", info.panel);
        s.fn = [this, p] { broadcast(p); };
        share.add_dependency(id, add_owned(std::move(s)));
      }
    }
    return share;
  }

  /// Crash-consistent checkpoint of the owned tiles with frontier `f`.
  void checkpoint(int f) {
    // Ack barrier BEFORE the frontier advances on disk: every send this
    // rank made so far — broadcast roots and tree forwards alike — must be
    // delivered, not merely queued. If this rank dies later, replay only
    // re-covers steps at or past the frontier; anything older has to
    // already be at its receiver.
    t_.flush();
    save_rank_checkpoint(rec_.ckpt.path_of(rank_), a_, dist_, rank_,
                         static_cast<std::uint64_t>(f));
    resil::note(resil::ResilienceEvent::kCkptWrite,
                "rank " + std::to_string(rank_) + " frontier " +
                    std::to_string(f));
  }

  rt::dist::Transport& t_;
  int rank_;
  const rt::Distribution& dist_;
  tlr::TlrMatrix& a_;
  RankRecoveryOptions rec_;
  DistCommOptions opts_;
  rt::TaskGraph g_;                  ///< the whole factorization
  std::vector<std::set<int>> dests_;  ///< per task: consumer ranks
  std::vector<Bytes> arrived_;  ///< per receive task: the payload
  RankCommStats stats_;
  RankCommStats sent_;  ///< broadcast roots; touched by the worker only
};

}  // namespace

RankRecoveryOptions RankRecoveryOptions::from_env() {
  RankRecoveryOptions rec;
  rec.ckpt = CheckpointPolicy::from_env();
  rec.faults = resil::FaultConfig::from_env();
  if (const char* e = std::getenv("PTLR_EPOCH")) {
    char* end = nullptr;
    const long v = std::strtol(e, &end, 10);
    PTLR_CHECK(end != nullptr && *end == '\0' && v >= 0 && v <= 255,
               "PTLR_EPOCH: expected 0..255, got '" + std::string(e) + "'");
    rec.epoch = static_cast<int>(v);
  }
  return rec;
}

DistCholeskyResult distributed_factorize(tlr::TlrMatrix& a,
                                         const rt::Distribution& dist,
                                         const compress::Accuracy& acc,
                                         const DistCommOptions& opts) {
  const int nranks = dist.nproc();

  const resil::RecoveryStats recovery_before = resil::snapshot();
  rt::dist::Communicator comm(nranks);
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(nranks));
  std::vector<RankCommStats> rank_comm(static_cast<std::size_t>(nranks));
  // A private replica per rank thread, as a rank process has: received
  // tiles land in the receiver's own slots.
  std::vector<tlr::TlrMatrix> replicas(static_cast<std::size_t>(nranks), a);
  WallTimer timer;
  {
    std::vector<std::thread> ranks;
    ranks.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      ranks.emplace_back([&, r] {
        const auto slot = static_cast<std::size_t>(r);
        rt::dist::SimTransport transport(comm, r);
        try {
          RankRun run(transport, dist, replicas[slot], acc, {}, opts);
          run.run();
          rank_comm[slot] = run.comm_stats();
        } catch (...) {
          errors[slot] = std::current_exception();
          transport.abort();  // wake peers blocked on recv
        }
      });
    }
    for (auto& th : ranks) th.join();
  }
  DistCholeskyResult result;
  result.seconds = timer.seconds();
  result.recovery = resil::diff(recovery_before, resil::snapshot());
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (int i = 0; i < a.nt(); ++i)
    for (int j = 0; j <= i; ++j)
      a.at(i, j) = std::move(
          replicas[static_cast<std::size_t>(dist.owner(i, j))].at(i, j));
  result.comm = comm.stats();
  result.rank_comm = std::move(rank_comm);
  return result;
}

DistCholeskyResult distributed_factorize_rank(
    tlr::TlrMatrix& a, const rt::Distribution& dist,
    const compress::Accuracy& acc, rt::dist::Transport& transport,
    const RankRecoveryOptions& recovery, const DistCommOptions& opts) {
  const resil::RecoveryStats recovery_before = resil::snapshot();
  WallTimer timer;
  RankCommStats stats;
  try {
    RankRun run(transport, dist, a, acc, recovery, opts);
    run.run();
    stats = run.comm_stats();
    transport.drain();
  } catch (...) {
    transport.abort();  // wake local receivers, tear the mesh down
    throw;
  }
  DistCholeskyResult result;
  result.seconds = timer.seconds();
  result.recovery = resil::diff(recovery_before, resil::snapshot());
  result.comm = transport.stats();
  result.rank_comm.push_back(stats);
  return result;
}

}  // namespace ptlr::core
