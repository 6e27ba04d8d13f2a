// Receiver side of the distributed Cholesky: the per-rank progress loop.
//
// A rank registers every tile it will receive when it builds its share of
// the task graph (core/dist_cholesky.cpp) — each stands for one
// external-input receive task — and runs the loop as its executor's feed
// (rt::ExecOptions::feed) while the worker computes. For whichever
// expected tag lands first (the transport's recv_any), the loop forwards
// the payload down the tag's broadcast tree at once, which moves the
// tree's latency off the critical path, hands the payload to the receive
// task and releases it; the task installs the tile in the rank's replica
// slot.
//
// Forward-on-first-arrival is also the recovery invariant: every edge of
// a broadcast tree is an ordinary transport send, so acks, retransmission
// and rejoin sent-log replay make each edge independently reliable. A
// forwarder that dies after receiving re-receives on replay (fresh
// incarnation, fresh dedup state) and re-forwards with the same
// deterministic ids, which the children dedup — exactly-once end to end.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/bytes.hpp"
#include "runtime/taskgraph.hpp"
#include "runtime/transport.hpp"

namespace ptlr::core {

/// Communication-path knobs of a distributed factorization.
struct DistCommOptions {
  /// Broadcast factored tiles over binomial trees (core/bcast_tree.hpp)
  /// instead of one unicast per destination. PTLR_BCAST=tree|flat.
  bool tree = true;

  /// Strict parse of PTLR_BCAST; a typo throws.
  static DistCommOptions from_env();
};

/// One rank's communication counters over a factorization, the numbers
/// BENCH_dist.json reports per rank.
struct RankCommStats {
  int rank = -1;
  long long messages = 0;      ///< tile messages this rank put on the wire
  long long bytes = 0;         ///< payload bytes of those messages
  /// Bytes sent as broadcast ORIGIN — the root-egress the tree bounds at
  /// one tile per broadcast.
  long long root_egress_bytes = 0;
  long long forwards = 0;        ///< tree forwards performed
  long long forward_bytes = 0;   ///< payload bytes of those forwards
  /// Received tiles that arrived while the rank's worker still had other
  /// work: the transfer overlapped computation.
  long long prefetch_hits = 0;
  /// Received tiles that arrived while the worker had run out of work and
  /// was waiting for them.
  long long prefetch_misses = 0;
  /// Seconds the rank's executor worker sat idle with no ready task, i.e.
  /// waiting for tiles to arrive: its run time minus its task time.
  double blocked_recv_seconds = 0.0;
};

/// The per-rank progress loop. Not thread-safe: register with expect()
/// first, then one thread calls run().
class TileFlow {
 public:
  /// Hands the payload of an arrived tag to its receive task.
  using Deliver = std::function<void(const Bytes&)>;

  TileFlow(rt::dist::Transport& t, RankCommStats& stats)
      : t_(t), stats_(stats) {}

  /// Register an expected broadcast delivery: `tag` will arrive from this
  /// rank's tree parent (or, flat mode, from the owner), must be forwarded
  /// to `children` (empty = leaf / flat), handed to `deliver`, and then
  /// receive task `task` released. Each tag is expected at most once.
  void expect(std::uint64_t tag, std::vector<int> children, rt::TaskId task,
              Deliver deliver);

  /// Receive until every expected tag has arrived, forwarding, delivering
  /// and releasing each as it lands; counts prefetch hits and misses from
  /// what `release` reports. Throws what the transport throws (abort, lost
  /// peer, watchdog deadline).
  void run(const std::function<bool(rt::TaskId)>& release);

 private:
  struct Expected {
    std::vector<int> children;
    rt::TaskId task;
    Deliver deliver;
  };

  rt::dist::Transport& t_;
  RankCommStats& stats_;
  std::map<std::uint64_t, Expected> pending_;  ///< expected, not arrived
};

}  // namespace ptlr::core
