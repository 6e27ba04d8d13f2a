// Property-based TaskGraph fuzzing support (tests only, not part of the
// shipped library).
//
// A FuzzProgram is a task graph whose bodies perform deterministic,
// NON-commutative arithmetic on a shared array of double "cells" (one cell
// per data key). Because the dataflow rules serialize every access pair
// that matters (RAW/WAR/WAW per key), *any* schedule that respects the
// graph must produce bitwise-identical cells — so a sequential run of the
// bodies in insertion order (a valid topological order) is an exact oracle
// for the parallel executor, under arbitrary thread counts and
// perturbation seeds.
//
// Invariant checkers return an empty string on success and a description
// of the first violation otherwise, so gtest call sites can
// EXPECT_EQ(check_x(...), "") and get the diagnosis in the failure output.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "runtime/taskgraph.hpp"
#include "runtime/trace.hpp"

namespace ptlr::testing {

class FuzzProgram {
 public:
  /// Random DAG over a small key pool: each task reads up to 3 and
  /// writes up to 2 random cells (mirrors an irregular TLR update DAG).
  static FuzzProgram random(Rng& rng, int ntasks, int nkeys);

  /// `layers` stacked diamonds: source -> `width` parallel middles ->
  /// sink, each sink feeding the next diamond's source.
  static FuzzProgram diamond(int layers, int width);

  /// `stages` fork-join rounds over `fanout` persistent lanes with a
  /// barrier task joining every stage.
  static FuzzProgram fork_join(int stages, int fanout);

  /// The tile Cholesky DAG (POTRF/TRSM/SYRK-GEMM over `ntiles` panels)
  /// with the paper's panel-release priorities; `band` tags tasks within
  /// the dense band so priority inversions cross the band boundary.
  static FuzzProgram band_cholesky(int ntiles, int band);

  /// Random DAG like random(), but ~60% of tasks additionally spawn
  /// 1..max_children child tasks (each with a ~30% chance of one
  /// grandchild) through rt::TaskGroup from inside their body. Children
  /// read cells the parent's graph footprint pins stable and write
  /// dedicated private cells, so their effects are schedule-independent
  /// and the insertion-order oracle stays exact whether spawns run
  /// inline (serial or single-worker contexts) or on stolen workers.
  /// The parent declares every descendant's footprint in its own graph
  /// keys, so no other graph task can race the children.
  static FuzzProgram nested(Rng& rng, int ntasks, int nkeys,
                            int max_children);

  FuzzProgram(const FuzzProgram&) = delete;
  FuzzProgram& operator=(const FuzzProgram&) = delete;
  FuzzProgram(FuzzProgram&&) noexcept;
  FuzzProgram& operator=(FuzzProgram&&) noexcept;
  ~FuzzProgram();

  [[nodiscard]] rt::TaskGraph& graph() { return graph_; }
  [[nodiscard]] int size() const { return graph_.size(); }

  /// Oracle: run every body sequentially in insertion order, without the
  /// worker pool. Does not touch the parallel-run state.
  [[nodiscard]] std::vector<double> run_reference() const;

  /// Cell values after the last parallel run (or the initial values).
  [[nodiscard]] const std::vector<double>& cells() const;

  /// Per-task execution counts accumulated since the last reset().
  [[nodiscard]] std::vector<long long> run_counts() const;

  /// Restore initial cells and zero the run counts before a(nother)
  /// parallel run of graph().
  void reset();

  /// One task's data footprint as cell indices.
  struct Op {
    std::vector<int> reads;
    std::vector<int> writes;
  };

  /// One nested child of a task body: its footprint, a global slot (its
  /// run-count index), a pseudo task id feeding the arithmetic (disjoint
  /// from all graph TaskIds), and optional grandchildren spawned from
  /// inside the child.
  struct ChildOp {
    Op op;
    int slot = 0;
    int pseudo_id = 0;
    std::vector<ChildOp> kids;
  };

  /// Per-child execution counts (indexed by ChildOp::slot) accumulated
  /// since the last reset(). Empty for shapes without nested children.
  [[nodiscard]] std::vector<long long> child_runs() const;

 private:
  struct State;  // ops + cells + run counters, stable address for bodies

  FuzzProgram(int nkeys, int ntasks_hint);
  rt::TaskId add_op(rt::TaskInfo info, Op op);
  rt::TaskId add_op(rt::TaskInfo info, Op op, std::vector<ChildOp> children);

  rt::TaskGraph graph_;
  std::unique_ptr<State> state_;
};

/// Every task ran exactly once.
std::string check_ran_exactly_once(const std::vector<long long>& counts);

/// Every edge t -> s satisfies seq_end(t) < seq_start(s) on the logical
/// happens-before stamps of a recorded trace, and every task was stamped.
std::string check_happens_before(const rt::TaskGraph& g,
                                 const std::vector<rt::TraceEvent>& trace);

/// Bitwise equality of a parallel run's cells against the oracle's.
std::string check_cells_match(const std::vector<double>& got,
                              const std::vector<double>& want);

}  // namespace ptlr::testing
