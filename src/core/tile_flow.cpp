#include "core/tile_flow.hpp"

#include <cstdlib>
#include <string>

#include "common/error.hpp"

namespace ptlr::core {

DistCommOptions DistCommOptions::from_env() {
  DistCommOptions opts;
  if (const char* e = std::getenv("PTLR_BCAST")) {
    const std::string v(e);
    if (v == "tree") {
      opts.tree = true;
    } else if (v == "flat") {
      opts.tree = false;
    } else {
      throw Error("PTLR_BCAST must be tree or flat, got: " + v);
    }
  }
  return opts;
}

void TileFlow::expect(std::uint64_t tag, std::vector<int> children,
                      rt::TaskId task, Deliver deliver) {
  PTLR_CHECK(pending_
                 .emplace(tag, Expected{std::move(children), task,
                                        std::move(deliver)})
                 .second,
             "TileFlow: tag expected twice");
}

void TileFlow::run(const std::function<bool(rt::TaskId)>& release) {
  std::vector<std::uint64_t> tags;
  while (!pending_.empty()) {
    tags.clear();
    for (const auto& entry : pending_) tags.push_back(entry.first);
    rt::dist::TaggedMessage msg = t_.recv_any(tags);
    const auto it = pending_.find(msg.tag);
    PTLR_CHECK(it != pending_.end(),
               "TileFlow: arrival of a tag that was not expected");
    // Forward FIRST: the children's progress must not wait for this
    // rank's work.
    for (const int child : it->second.children) {
      t_.send(child, msg.tag, msg.payload);  // shares the buffer, no copy
      stats_.messages += 1;
      stats_.bytes += static_cast<long long>(msg.payload.size());
      stats_.forwards += 1;
      stats_.forward_bytes += static_cast<long long>(msg.payload.size());
    }
    it->second.deliver(msg.payload);
    // A release that wakes the worker means it had run out of work.
    (release(it->second.task) ? stats_.prefetch_misses
                              : stats_.prefetch_hits) += 1;
    pending_.erase(it);
  }
}

}  // namespace ptlr::core
