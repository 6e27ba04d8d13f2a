// Chase–Lev work-stealing deque: the per-worker ready queue of the
// work-stealing executor.
//
// One owner thread pushes and pops at the bottom (LIFO — the task just
// released reuses the cache lines its predecessor warmed); any other
// thread steals from the top (FIFO — thieves take the oldest, coldest
// work) with a single CAS. The algorithm is Chase & Lev (SPAA 2005) with
// the C11 memory orders of Lê, Pop, Cohen & Zappa Nardelli (PPoPP 2013),
// strengthened from standalone fences to seq_cst operations on top/bottom:
// ThreadSanitizer models atomic operations exactly but has incomplete
// support for atomic_thread_fence, so the fence-based formulation would
// report false races under the sanitizer presets. The cost is one
// store-load barrier in push/pop, still far below a mutex round-trip.
//
// The ring grows geometrically when full (the owner never overwrites an
// unconsumed slot); retired rings are kept alive until the deque is
// destroyed so a concurrent thief holding a stale ring pointer reads
// valid, identical slots — indices below the growth point hold the same
// values in every ring generation.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

namespace ptlr::rt {

class WsDeque {
 public:
  /// pop()/steal() result when no task is available.
  static constexpr std::int32_t kEmpty = -1;
  /// steal() result when the CAS lost a race; the caller should retry
  /// (work may remain) rather than treat the deque as drained.
  static constexpr std::int32_t kAbort = -2;

  explicit WsDeque(std::size_t capacity = 64)
      : ring_(new Ring(round_up(capacity))) {
    retired_.emplace_back(ring_.load(std::memory_order_relaxed));
  }

  WsDeque(const WsDeque&) = delete;
  WsDeque& operator=(const WsDeque&) = delete;

  /// Owner only: push a task id (>= 0) at the bottom.
  void push(std::int32_t v) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* r = ring_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(r->capacity())) r = grow(r, t, b);
    r->slot(b).store(v, std::memory_order_relaxed);
    // seq_cst publish: a thief that reads this bottom value also sees the
    // slot write and any ring_ update sequenced before it.
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Pre-start seeding only: push without the seq_cst publish. Safe only
  /// while no other thread can touch the deque — the caller relies on a
  /// later synchronizing event (std::thread creation of the workers) to
  /// publish everything at once instead of paying a store-load barrier
  /// per seeded root.
  void push_prestart(std::int32_t v) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    Ring* r = ring_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(r->capacity())) r = grow(r, t, b);
    r->slot(b).store(v, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_relaxed);
  }

  /// Owner only: pop the most recently pushed task; kEmpty if none.
  std::int32_t pop() {
    // Fast path: the owner's bottom is exact and top only ever grows, so a
    // stale (smaller) top can only under-report emptiness — if b <= t here
    // the deque is definitely empty and the seq_cst reservation dance (a
    // full fence) is skipped. Matters when scanning empty priority bands.
    if (bottom_.load(std::memory_order_relaxed) <=
        top_.load(std::memory_order_relaxed))
      return kEmpty;
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* r = ring_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {
      // Deque was empty; undo the reservation.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return kEmpty;
    }
    std::int32_t v = r->slot(b).load(std::memory_order_relaxed);
    if (t == b) {
      // Last element: race the thieves for it.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed))
        v = kEmpty;  // a thief won
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return v;
  }

  /// Any thread: steal the oldest task; kEmpty if none, kAbort on a lost
  /// race (retry-worthy).
  std::int32_t steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return kEmpty;
    // Reading bottom synchronized with the owner's publish of slot b-1 (and
    // of any ring_ growth before it), so this ring pointer is recent enough
    // for every index in [t, b).
    Ring* r = ring_.load(std::memory_order_acquire);
    const std::int32_t v = r->slot(t).load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return kAbort;
    return v;
  }

  /// Racy size estimate — only a hint for idle/steal scans.
  [[nodiscard]] std::int64_t size_hint() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

 private:
  class Ring {
   public:
    explicit Ring(std::size_t n) : mask_(n - 1), slots_(n) {}
    [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }
    [[nodiscard]] std::atomic<std::int32_t>& slot(std::int64_t i) {
      return slots_[static_cast<std::size_t>(i) & mask_];
    }

   private:
    std::size_t mask_;
    std::vector<std::atomic<std::int32_t>> slots_;
  };

  static std::size_t round_up(std::size_t n) {
    std::size_t c = 8;
    while (c < n) c <<= 1;
    return c;
  }

  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    auto bigger = std::make_unique<Ring>(old->capacity() * 2);
    for (std::int64_t i = t; i < b; ++i)
      bigger->slot(i).store(old->slot(i).load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    Ring* r = bigger.get();
    retired_.push_back(std::move(bigger));  // owner-only; keeps `old` alive
    ring_.store(r, std::memory_order_release);
    return r;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> ring_;
  /// Every ring ever allocated, newest last. Owner-only mutation; thieves
  /// never touch it (they go through ring_), so no lock is needed and a
  /// stale ring pointer can never dangle. First entry owns the initial
  /// ring created in the constructor.
  std::vector<std::unique_ptr<Ring>> retired_;
};

}  // namespace ptlr::rt
