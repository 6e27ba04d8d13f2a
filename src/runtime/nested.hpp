// Nested (child) task parallelism for the work-stealing executor.
//
// A graph task is the unit of dependency tracking, fault recovery and
// tracing — but the dense band's POTRF/TRSM/SYRK bodies are minutes of
// serial work at large tile sizes, and a core that finishes its own graph
// tasks idles behind them. This header lets a *running* task push child
// tasks into the same ws engine: the dense kernels cut their panel/update
// volume into sub-blocks and spawn them, idle workers steal them, and the
// parent joins before returning — OmpSs-style nested task parallelism
// (see PAPERS.md, arXiv:1906.00874) without a second runtime.
//
// Contract (enforced by construction, asserted in tests/test_scheduler.cpp):
//
//   * Children are invisible to the graph: no TaskIds, no trace spans, no
//     fault-injection sites. A child's exception is captured and rethrown
//     from the parent's sync(), so it rolls up into the parent's retry
//     (TransientError) or run failure exactly like a monolithic body.
//   * Flop counters stay bitwise-exact: the dense entry points charge their
//     models on the calling (parent) thread before spawning, and children
//     only run the internal uncharged bodies — so obs span attribution is
//     unchanged by where children execute.
//   * Spawning is advisory: on a thread without a worker context (serial
//     contexts, a single-worker run) spawn() runs the body at the spawn
//     point, so a nested kernel is *the same program* serially and in
//     parallel. The decomposition itself must not depend on whether a
//     context is present — callers gate chunking on problem shape only,
//     which is what keeps nested-parallel results bitwise-identical to the
//     serial oracle.
//
// The executor installs the substrate on every run with more than one
// worker. A one-worker run gets none, so every spawn is a plain call:
// that run is the no-children oracle the parallel runs match bitwise.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/ws_deque.hpp"

namespace ptlr::rt {

class TaskGroup;

namespace detail {

/// Child slots per worker. The pool is fixed (lock-free freelists want
/// stable addresses); a worker that exhausts its share runs further
/// children inline at the spawn point, so the bound is a throttle, not a
/// correctness limit.
inline constexpr int kChildSlotsPerWorker = 256;

/// Child-task substrate owned by one ws-engine run: a fixed slot pool
/// (per-worker freelists, so allocation is a single-consumer pop), one
/// child deque per worker (the spawner pushes LIFO, idle workers steal
/// FIFO — same Chase–Lev deque as the graph bands), and a wake hook into
/// the engine's idle-set so a parked worker learns about fresh children.
struct NestedEngine {
  struct Slot {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    /// Freelist link. MPSC Treiber stack per owner: any thread that
    /// finishes a child pushes the slot back (CAS), only the owning worker
    /// pops — a single consumer cannot ABA itself.
    std::atomic<std::int32_t> next{-1};
  };
  struct alignas(64) Lane {
    WsDeque kids;
    std::atomic<std::int32_t> free_head{-1};
    long long spawned = 0;  ///< children pushed to the deque (owner-written)
    long long inlined = 0;  ///< pool-dry fallbacks run at the spawn point
  };

  explicit NestedEngine(int nworkers_);

  int nworkers;
  std::vector<Slot> slots;
  std::vector<std::unique_ptr<Lane>> lanes;
  /// Executor hook: claim-and-wake one idle worker (never the caller).
  /// Set by execute() before the pool starts.
  std::function<void(int self)> wake;

  /// Pop a free slot from `self`'s freelist; -1 when dry.
  [[nodiscard]] std::int32_t alloc(int self);
  /// Return a finished slot to its owning worker's freelist (any thread).
  void release(std::int32_t slot);
  [[nodiscard]] int owner_of(std::int32_t slot) const {
    return slot / kChildSlotsPerWorker;
  }

  /// Run one child on the calling thread: body, error capture into its
  /// group, slot recycle, scope countdown (in that order — the decrement
  /// is the last touch, so the parent may unwind the moment it reads 0).
  void run_child(std::int32_t slot);
  /// Steal a child from any other worker's deque; -1 when none. Retries
  /// while any steal aborted, mirroring the graph-band steal scan.
  [[nodiscard]] std::int32_t steal_child(int self);
};

/// Per-worker context installed by the ws engine for the duration of a
/// run; TaskGroup reads it through the thread-local current_context().
struct TaskContext {
  NestedEngine* eng = nullptr;
  int self = 0;
};

[[nodiscard]] TaskContext* current_context() noexcept;

/// RAII installer/restorer of the calling thread's TaskContext.
class ContextGuard {
 public:
  explicit ContextGuard(TaskContext* ctx) noexcept;
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  TaskContext* prev_;
};

}  // namespace detail

/// True when the calling thread is a ws worker that accepts child tasks
/// (i.e. a TaskGroup spawned here would actually run in parallel). The
/// dense kernels use this only to skip chunking overhead when spawning
/// could not help — never to change the decomposition of a chunked call.
[[nodiscard]] bool nested_available() noexcept;

/// One parent's fork/join scope. Construct inside a task body, spawn any
/// number of children, sync() before the body returns. The destructor
/// drains stragglers (children may reference the enclosing frame) but
/// swallows their errors — call sync() to observe them.
class TaskGroup {
 public:
  TaskGroup() noexcept = default;
  ~TaskGroup() { drain(); }
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submit one child. On a ws worker the body is pushed onto the
  /// caller's child deque (stealable, LIFO for the owner); anywhere else
  /// — serial contexts, a single-worker run, a dry slot pool — it runs
  /// right here, exceptions propagating directly.
  void spawn(std::function<void()> fn);

  /// Wait until every spawned child finished, helping: the caller pops
  /// its own child deque and steals other workers' children (never graph
  /// tasks — a graph task could not legally run inside another's span)
  /// while it waits. Rethrows the first child exception captured.
  void sync();

 private:
  friend struct detail::NestedEngine;
  void record_error(std::exception_ptr e) noexcept;
  void drain() noexcept;

  std::atomic<long long> outstanding_{0};
  std::atomic<bool> failed_{false};
  std::mutex err_mu_;
  std::exception_ptr error_;
};

}  // namespace ptlr::rt
