// Shared policy pieces of the shared-memory executor's work-stealing
// engine (see executor.cpp): per-worker Chase–Lev deques in priority
// bands, lock-free dependency release, locality-directed placement and
// targeted wakeups. Every run — one worker or many, chaos mode or not —
// goes through this one engine.
#pragma once

namespace ptlr::rt {

class TaskGraph;

/// Number of priority bands per worker deque. Tasks are binned by
/// TaskInfo::priority; workers drain higher bands first, so critical-path
/// panel tasks (POTRF/TRSM carry the larger priority boosts in the
/// Cholesky graph) preempt the GEMM update soup without a total order —
/// matching the PaRSEC priority scheme the paper relies on.
inline constexpr int kSchedBands = 4;

/// Run-on-finisher chain cap: how many sole-released successors a worker
/// executes back-to-back before breaking the chain with a real push. The
/// cap bounds unfairness (a chain monopolizing one worker while higher
/// bands wait in its deque) and keeps the watchdog's ready/running dump
/// honest on pathological million-task chains. A serial chain of n tasks
/// therefore shows n - ceil(n / (kInlineChainMax + 1)) inline runs.
inline constexpr int kInlineChainMax = 256;

/// Linear priority→band binning computed once per run from the graph's
/// priority range. A flat graph (all priorities equal) maps to band 0.
class BandMap {
 public:
  static BandMap from_graph(const TaskGraph& g);

  /// Band for a priority; 0 = lowest .. kSchedBands-1 = highest.
  [[nodiscard]] int band(double priority) const {
    if (flat_) return 0;
    const double x = (priority - lo_) / (hi_ - lo_);
    const int b = static_cast<int>(x * kSchedBands);
    return b < 0 ? 0 : (b >= kSchedBands ? kSchedBands - 1 : b);
  }

  /// How many bands this graph can actually populate — 1 for a flat
  /// graph, so pop/steal scans skip the guaranteed-empty upper bands.
  [[nodiscard]] int bands_used() const { return flat_ ? 1 : kSchedBands; }

 private:
  double lo_ = 0.0;
  double hi_ = 0.0;
  bool flat_ = true;
};

/// Engine counters, reported per run in ExecResult.
struct SchedStats {
  long long steals = 0;            ///< tasks taken from another worker
  long long diverted = 0;          ///< releases routed to the locality hint
  long long wakeups = 0;           ///< targeted single-worker wakeups
  long long parks = 0;             ///< times a worker went to sleep
  /// Run-on-finisher: sole-released successors executed inline on the
  /// finishing worker instead of round-tripping through a deque. A serial
  /// chain should show ~every non-root task here.
  long long inline_runs = 0;
  /// Ready pushes that skipped the locality-divert heuristic because they
  /// broke an inline chain (depth cap / cancellation / chaos cut):
  /// scattering a chain task to another worker's inbox would just resume
  /// the ping-pong the inline path exists to kill.
  long long divert_suppressed = 0;
  /// Child tasks pushed into worker deques by running parents (nested
  /// task parallelism; pool-dry inline fallbacks are not counted).
  long long nested_spawned = 0;
};

}  // namespace ptlr::rt
