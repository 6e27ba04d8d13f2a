#include "runtime/nested.hpp"

#include <thread>
#include <utility>

namespace ptlr::rt {

namespace detail {

namespace {
thread_local TaskContext* g_ctx = nullptr;
}  // namespace

TaskContext* current_context() noexcept { return g_ctx; }

ContextGuard::ContextGuard(TaskContext* ctx) noexcept : prev_(g_ctx) {
  g_ctx = ctx;
}

ContextGuard::~ContextGuard() { g_ctx = prev_; }

NestedEngine::NestedEngine(int nworkers_)
    : nworkers(nworkers_),
      slots(static_cast<std::size_t>(nworkers_) * kChildSlotsPerWorker),
      lanes(static_cast<std::size_t>(nworkers_)) {
  for (int w = 0; w < nworkers; ++w) {
    lanes[w] = std::make_unique<Lane>();
    const std::int32_t lo = w * kChildSlotsPerWorker;
    for (std::int32_t s = lo; s < lo + kChildSlotsPerWorker - 1; ++s)
      slots[static_cast<std::size_t>(s)].next.store(s + 1,
                                                    std::memory_order_relaxed);
    slots[static_cast<std::size_t>(lo + kChildSlotsPerWorker - 1)].next.store(
        -1, std::memory_order_relaxed);
    lanes[w]->free_head.store(lo, std::memory_order_relaxed);
  }
}

std::int32_t NestedEngine::alloc(int self) {
  auto& head = lanes[static_cast<std::size_t>(self)]->free_head;
  std::int32_t h = head.load(std::memory_order_acquire);
  while (h >= 0) {
    const std::int32_t nx =
        slots[static_cast<std::size_t>(h)].next.load(std::memory_order_relaxed);
    // Weak CAS refreshes h on failure; only this worker pops, so nx cannot
    // go stale between the load and a successful exchange.
    if (head.compare_exchange_weak(h, nx, std::memory_order_acquire,
                                   std::memory_order_acquire))
      return h;
  }
  return -1;
}

void NestedEngine::release(std::int32_t slot) {
  auto& head = lanes[static_cast<std::size_t>(owner_of(slot))]->free_head;
  std::int32_t h = head.load(std::memory_order_relaxed);
  do {
    slots[static_cast<std::size_t>(slot)].next.store(h,
                                                     std::memory_order_relaxed);
  } while (!head.compare_exchange_weak(h, slot, std::memory_order_release,
                                       std::memory_order_relaxed));
}

void NestedEngine::run_child(std::int32_t slot) {
  Slot& s = slots[static_cast<std::size_t>(slot)];
  TaskGroup* group = s.group;
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;
  s.group = nullptr;
  try {
    fn();
  } catch (...) {
    group->record_error(std::current_exception());
  }
  // Destroy the body (it typically references the parent's stack frame)
  // and recycle the slot *before* the countdown: the release-decrement is
  // the last touch of anything group-owned, so the parent's sync() may
  // return — and its frame unwind — the instant it observes zero.
  fn = nullptr;
  release(slot);
  group->outstanding_.fetch_sub(1, std::memory_order_release);
}

std::int32_t NestedEngine::steal_child(int self) {
  for (;;) {
    bool aborted = false;
    for (int d = 1; d < nworkers; ++d) {
      const int victim = (self + d) % nworkers;
      const std::int32_t got =
          lanes[static_cast<std::size_t>(victim)]->kids.steal();
      if (got >= 0) return got;
      if (got == WsDeque::kAbort) aborted = true;
    }
    if (!aborted) return -1;
  }
}

}  // namespace detail

bool nested_available() noexcept {
  return detail::current_context() != nullptr;
}

void TaskGroup::record_error(std::exception_ptr e) noexcept {
  {
    const std::lock_guard<std::mutex> lk(err_mu_);
    if (!error_) error_ = std::move(e);
  }
  failed_.store(true, std::memory_order_release);
}

void TaskGroup::spawn(std::function<void()> fn) {
  // The *calling thread's* context decides where the child goes — a child
  // may legally spawn grandchildren into a group on another worker's
  // stack, and the lane operations below must be the caller's own (the
  // freelist pop and deque push are single-owner).
  detail::TaskContext* ctx = detail::current_context();
  if (ctx == nullptr) {
    fn();
    return;
  }
  detail::NestedEngine& eng = *ctx->eng;
  detail::NestedEngine::Lane& lane =
      *eng.lanes[static_cast<std::size_t>(ctx->self)];
  const std::int32_t slot = eng.alloc(ctx->self);
  if (slot < 0) {
    // Pool dry: degrade to a plain call. Depth-first inlining here bounds
    // live children without blocking, like cut-off in cilk-style runtimes.
    ++lane.inlined;
    fn();
    return;
  }
  detail::NestedEngine::Slot& s = eng.slots[static_cast<std::size_t>(slot)];
  s.fn = std::move(fn);
  s.group = this;
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  lane.kids.push(slot);
  ++lane.spawned;
  if (eng.wake) eng.wake(ctx->self);
}

void TaskGroup::drain() noexcept {
  detail::TaskContext* ctx = detail::current_context();
  while (outstanding_.load(std::memory_order_acquire) > 0) {
    std::int32_t slot = -1;
    if (ctx != nullptr) {
      slot = ctx->eng->lanes[static_cast<std::size_t>(ctx->self)]->kids.pop();
      if (slot < 0) slot = ctx->eng->steal_child(ctx->self);
    }
    if (slot >= 0) {
      // Helping may run children of *other* groups too — that only brings
      // their joins closer and keeps the drain loop deadlock-free even
      // when this group's stragglers sit behind foreign children.
      ctx->eng->run_child(slot);
      continue;
    }
    std::this_thread::yield();
  }
}

void TaskGroup::sync() {
  // Drain unconditionally — even when the run is being cancelled — because
  // the parent's frame (and, under fault retry, the about-to-be-restored
  // task outputs) must not have stray child writes in flight.
  drain();
  if (failed_.load(std::memory_order_acquire)) {
    std::exception_ptr e;
    {
      const std::lock_guard<std::mutex> lk(err_mu_);
      e = std::exchange(error_, nullptr);
    }
    failed_.store(false, std::memory_order_relaxed);
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace ptlr::rt
