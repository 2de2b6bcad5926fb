// Tier-2 SPSC fuzz: a real producer thread and a real consumer thread
// drive an SpscQueue with randomized batch sizes and yields, and the
// popped sequence is compared against a mutex-protected deque oracle fed
// the identical pushes. Any lost, duplicated, reordered, or torn value is
// a failure. Run under TSan by scripts/run_sanitized_tests.sh, where the
// acquire/release protocol itself is checked.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "pls/common/rng.hpp"
#include "pls/sim/spsc_queue.hpp"

namespace pls::sim {
namespace {

/// The straightforward thread-safe queue the lock-free ring must match.
class MutexQueueOracle {
 public:
  void push(std::uint64_t v) {
    const std::lock_guard<std::mutex> lock(mu_);
    values_.push_back(v);
  }
  bool pop(std::uint64_t& out) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (values_.empty()) return false;
    out = values_.front();
    values_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::deque<std::uint64_t> values_;
};

struct FuzzParams {
  std::size_t capacity;
  std::size_t total;
  std::uint64_t seed;
};

void run_fuzz(const FuzzParams& p) {
  SpscQueue<std::uint64_t> queue(p.capacity);
  MutexQueueOracle oracle;

  // The producer pushes the same value into the ring and the oracle, in
  // the same order; since this is the only producer, the oracle's FIFO
  // order is exactly the ring's required order.
  std::thread producer([&] {
    Rng rng(p.seed);
    std::uint64_t next = 0;
    while (next < p.total) {
      const std::size_t batch = 1 + static_cast<std::size_t>(
                                        rng.next_u64() % p.capacity);
      for (std::size_t i = 0; i < batch && next < p.total; ++i) {
        const std::uint64_t v = next * 0x9e3779b97f4a7c15ULL + p.seed;
        oracle.push(v);
        std::uint64_t item = v;
        while (!queue.try_push(std::move(item))) std::this_thread::yield();
        ++next;
      }
      if (rng.next_u64() % 4 == 0) std::this_thread::yield();
    }
  });

  // The consumer reads each value in place and releases its slot after,
  // as the runtime's workers do.
  std::size_t popped = 0;
  std::uint64_t want = 0;
  Rng rng(p.seed ^ 0xabcdefULL);
  while (popped < p.total) {
    const std::uint64_t* got = queue.front();
    if (got == nullptr) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_TRUE(oracle.pop(want)) << "ring produced a value the oracle "
                                     "never saw (pop " << popped << ")";
    ASSERT_EQ(*got, want) << "order or value diverged at pop " << popped;
    queue.pop_front();
    ++popped;
    if (rng.next_u64() % 7 == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(oracle.pop(want)) << "oracle still holds values the ring "
                                    "never delivered";
}

TEST(SpscFuzz, TinyRingManyWraps) {
  run_fuzz({.capacity = 2, .total = 50'000, .seed = 1});
}

TEST(SpscFuzz, SmallRing) {
  run_fuzz({.capacity = 8, .total = 100'000, .seed = 2});
}

TEST(SpscFuzz, LargerRingSeveralSeeds) {
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    run_fuzz({.capacity = 128, .total = 100'000, .seed = seed});
  }
}

}  // namespace
}  // namespace pls::sim
