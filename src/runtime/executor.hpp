// Shared-memory task executor: a work-stealing worker pool that runs a
// TaskGraph's bodies for real. This is the mode every numerical result in
// PTLR is computed in; the virtual-cluster simulator reuses the same graphs
// for distributed-scale studies.
#pragma once

#include <functional>

#include "resilience/fault.hpp"
#include "resilience/stats.hpp"
#include "resilience/watchdog.hpp"
#include "runtime/perturb.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/taskgraph.hpp"
#include "runtime/trace.hpp"

namespace ptlr::rt {

/// Result of a shared-memory run.
struct ExecResult {
  double seconds = 0.0;              ///< wall-clock makespan
  std::vector<TraceEvent> trace;     ///< one event per executed task
  /// Recovery events observed while this run executed (process-global
  /// snapshot diff: injected faults, retries, recoveries, watchdog fires).
  resil::RecoveryStats recovery;
  /// Engine counters: steals, diverts, wakeups, parks, inline runs,
  /// nested children.
  SchedStats sched;
};

/// Options of a shared-memory run.
struct ExecOptions {
  bool record_trace = false;  ///< fill ExecResult::trace (incl. seq stamps)
  /// Run TaskGraph::validate() before launching workers, so a malformed
  /// graph (cycle, dangling successor, inconsistent predecessor counts)
  /// throws a descriptive ptlr::Error instead of deadlocking the pool.
  bool validate = true;
  /// Chaos mode (see perturb.hpp): seeded priority inversions at pop,
  /// steal-victim order, inline-chain cuts and worker stalls. Defaults
  /// honour PTLR_PERTURB_SEED so failing seeds replay without a recompile.
  PerturbConfig perturb = PerturbConfig::from_env();
  /// Fault injection (see resilience/fault.hpp): transient task-body
  /// exceptions, simulated allocation failures, NaN output poisoning.
  /// Defaults honour PTLR_FAULTS. Only tasks that declare TaskOutputs are
  /// ever targeted, and recovery restores their snapshots, so an injected
  /// run's factor is bitwise identical to a fault-free run's.
  resil::FaultConfig faults = resil::FaultConfig::from_env();
  /// Bounded-backoff retry of ptlr::TransientError failures.
  resil::RetryPolicy retry;
  /// Stall watchdog: if no task completes for the deadline, the run is
  /// cancelled and a descriptive ptlr::Error carrying a dump of
  /// ready/running/pending task names is thrown (after flushing the obs
  /// trace, when enabled). Defaults honour PTLR_WATCHDOG_MS.
  resil::WatchdogConfig watchdog = resil::WatchdogConfig::from_env();
  /// Invoked (once, off-lock) when the run is cancelled — the watchdog
  /// fired, or a task or the feed failed — before waiting for workers to
  /// exit. Wire this to whatever can unblock stuck task bodies or a
  /// blocked feed — e.g. Communicator::abort() for mailbox receives.
  std::function<void()> on_cancel;
  /// The one entry point for inputs from outside the graph (a distributed
  /// rank's progress loop). Runs on a thread of its own while the workers
  /// execute — worker 0 then runs on the calling thread — and hands each
  /// arrived input to `release(t)`: external-input task t (TaskInfo::
  /// external_input) becomes ready once its predecessors are done too, via
  /// a worker's cross-worker inbox and wake path. `release` returns true
  /// when it woke a worker that had run out of work, i.e. the run was
  /// waiting for this input. The feed must return once it has released
  /// every external-input task; if it throws, the run is cancelled and
  /// execute() rethrows. Required when the graph has external inputs.
  std::function<void(const std::function<bool(TaskId)>& release)> feed;
};

/// Execute every task in `g` respecting its dependencies, using `nthreads`
/// worker threads on the work-stealing engine (scheduler.hpp). Each worker
/// drains its higher TaskInfo::priority bands first (unless perturbation
/// inverts it); within a band the order is not a priority order.
/// ptlr::TransientError failures of tasks with declared outputs are
/// recovered by snapshot-restore + retry (opts.retry); any other exception
/// cancels the run — pending tasks are skipped, the pool drains promptly,
/// and the first error is rethrown on the calling thread.
ExecResult execute(TaskGraph& g, int nthreads, const ExecOptions& opts);

/// Back-compat convenience overload.
ExecResult execute(TaskGraph& g, int nthreads, bool record_trace = false);

}  // namespace ptlr::rt
