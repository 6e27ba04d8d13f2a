#include "runtime/scheduler.hpp"

#include "runtime/taskgraph.hpp"

namespace ptlr::rt {

BandMap BandMap::from_graph(const TaskGraph& g) {
  BandMap m;
  const int n = g.size();
  if (n == 0) return m;
  // Sweep the dense metadata array, not the fat Node records: this runs
  // once per execute() and at 10^6 tasks the difference is tens of ms.
  const std::vector<TaskMeta>& meta = g.meta();
  m.lo_ = m.hi_ = meta[0].priority;
  for (TaskId t = 1; t < n; ++t) {
    const double p = meta[static_cast<std::size_t>(t)].priority;
    if (p < m.lo_) m.lo_ = p;
    if (p > m.hi_) m.hi_ = p;
  }
  m.flat_ = !(m.hi_ > m.lo_);
  return m;
}

}  // namespace ptlr::rt
