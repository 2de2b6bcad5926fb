// Bounded lock-free single-producer/single-consumer ring queue — the
// only channel between the control plane and a worker shard in
// sim::ShardedRuntime (one queue per shard, control thread producing,
// shard thread consuming).
//
// Design (classic Lamport ring with two modern refinements):
//  - head_ (consumer cursor) and tail_ (producer cursor) are
//    free-running uint64 counters; the slot index is counter &
//    (capacity-1), so full/empty never needs a wasted slot and
//    wraparound arithmetic is exact for any practical run length.
//  - Each side keeps a *cached* copy of the other side's cursor and only
//    re-loads the shared atomic when the cached value says the queue
//    looks full/empty. Steady-state push/pop therefore touch one shared
//    cache line each (their own cursor, released), not two — the
//    cross-core coherence traffic is one line per batch, not per op.
//  - Cursors are alignas(64) so producer and consumer state never share
//    a cache line (no false sharing).
//
// The consumer works on a value in place: front() returns the oldest
// value still in its slot, and pop_front() destroys it and only then
// releases the slot. So a value is never moved out, and from the
// producer's side empty() means every pushed value has been consumed and
// released — the runtime's drain barrier waits on exactly that.
//
// Memory ordering: the producer publishes a slot with a store of tail_
// that the consumer observes with an acquire load, and the consumer
// releases a slot with a release store of head_ that the producer (and
// empty()) observes with an acquire load. No fences, no CAS, no locks.
// The tail_ store and front()'s re-load of tail_ are seq_cst rather than
// release/acquire: a consumer that announces it is about to sleep and
// then re-checks the ring, against a producer that publishes and then
// reads the announcement, needs StoreLoad order on both sides (the
// runtime's park handshake). On x86 the seq_cst load costs nothing extra
// and the store is one locked instruction.
//
// Slots are raw aligned storage: a value is constructed in place on a
// successful push and destroyed by pop_front, so T needs only a move
// constructor (move-only payloads are fine) and the queue itself does
// zero heap allocation after construction — push/pop are gated at
// exactly 0 allocs under PLS_COUNT_ALLOCS.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

namespace pls::sim {

namespace detail {
// A fixed 64 rather than std::hardware_destructive_interference_size:
// the standard constant is an ABI hazard (GCC warns when it leaks into
// headers) and 64 is correct on every target we build for.
inline constexpr std::size_t kCacheLine = 64;
}  // namespace detail

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to a power of two (minimum 2) so the slot
  /// index is a mask, not a modulo.
  explicit SpscQueue(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_ = std::allocator<Slot>{}.allocate(capacity_);
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  ~SpscQueue() {
    // Drain whatever the consumer never popped. Destruction must not be
    // concurrent with either side (standard SPSC contract).
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    for (std::uint64_t i = head; i != tail; ++i) slot(i)->~T();
    std::allocator<Slot>{}.deallocate(slots_, capacity_);
  }

  std::size_t capacity() const noexcept { return capacity_; }

  /// Producer side. Returns false (and does NOT consume `value`) when the
  /// ring is full.
  bool try_push(T&& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ == capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ == capacity_) return false;
    }
    ::new (static_cast<void*>(slot(tail))) T(std::move(value));
    tail_.store(tail + 1, std::memory_order_seq_cst);
    return true;
  }

  /// Consumer side: the oldest value, left in its slot, or nullptr when
  /// the ring is empty. Stays valid until pop_front().
  T* front() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_seq_cst);
      if (head == cached_tail_) return nullptr;
    }
    return slot(head);
  }

  /// Consumer side: destroys the value front() returned and releases its
  /// slot to the producer. Only valid after front() returned non-null.
  void pop_front() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    slot(head)->~T();
    head_.store(head + 1, std::memory_order_release);
  }

  /// Exact from either side. From the producer it means every value
  /// pushed so far has been popped, and whatever the consumer did before
  /// its last pop_front() happens-before this call returning true.
  bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

  /// Approximate occupancy (exact from either endpoint when the other
  /// side is quiescent). For diagnostics/tests, not control flow.
  std::size_t size() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<std::size_t>(tail - head);
  }

 private:
  struct alignas(alignof(T)) Slot {
    std::byte storage[sizeof(T)];
  };

  T* slot(std::uint64_t i) noexcept {
    return std::launder(
        reinterpret_cast<T*>(slots_[i & mask_].storage));
  }

  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  Slot* slots_ = nullptr;

  // Producer-owned line: its cursor plus a cached view of the consumer's.
  alignas(detail::kCacheLine) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ = 0;
  // Consumer-owned line.
  alignas(detail::kCacheLine) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ = 0;
};

}  // namespace pls::sim
