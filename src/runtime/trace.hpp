// Execution trace records shared by the shared-memory executor and the
// virtual-cluster simulator. Feed Figs. 9 (panel release) and 11
// (busy/idle occupancy).
#pragma once

#include <string>
#include <vector>

#include "runtime/taskgraph.hpp"

namespace ptlr::rt {

/// One executed task instance.
struct TraceEvent {
  TaskId task = -1;
  int kind = 0;       ///< TaskInfo::kind
  int panel = -1;     ///< TaskInfo::panel
  int proc = 0;       ///< process (simulator) or 0 (shared memory)
  int worker = 0;     ///< worker/core index within the process
  double start = 0.0; ///< seconds from run start
  double end = 0.0;
  /// Logical happens-before stamps drawn from one atomic counter shared by
  /// all workers (shared-memory executor only; -1 in simulator traces).
  /// A dependency t -> s executed correctly iff seq_end(t) < seq_start(s);
  /// unlike wall-clock start/end these cannot alias under coarse timers,
  /// so the fuzzer's dependency checker is exact.
  long long seq_start = -1;
  long long seq_end = -1;
};

/// Completion time of the last task of each panel — the panel release
/// curve of Fig. 9. Returns one entry per panel index present.
std::vector<double> panel_release_times(const std::vector<TraceEvent>& trace);

/// Aggregate statistics per task kind (TaskInfo::kind): how many ran and
/// how much time they consumed — the per-kernel-class breakdown behind the
/// Fig. 11 analysis ("most flops come from TLR GEMMs").
struct KindStats {
  int kind = 0;
  long long count = 0;
  double seconds = 0.0;
};
std::vector<KindStats> kind_breakdown(const std::vector<TraceEvent>& trace);

/// Serialize a trace in the Chrome tracing JSON format (open the file at
/// chrome://tracing or https://ui.perfetto.dev): one lane per
/// (process, worker), one complete event per task, named from the graph.
/// Throws ptlr::Error if the file cannot be written.
void write_chrome_trace(const std::vector<TraceEvent>& trace,
                        const TaskGraph& g, const std::string& path);

}  // namespace ptlr::rt
