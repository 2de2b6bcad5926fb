// SpscQueue unit tests (single-threaded semantics; the two-thread
// behaviour is fuzzed against a mutex-queue oracle in tier-2
// test_spsc_fuzz.cpp and raced under TSan via the sanitizer script).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "pls/sim/spsc_queue.hpp"

namespace pls::sim {
namespace {

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(64).capacity(), 64u);
  EXPECT_EQ(SpscQueue<int>(65).capacity(), 128u);
}

TEST(SpscQueue, PushPopIsFifo) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(int(i)));
  for (int i = 0; i < 5; ++i) {
    ASSERT_NE(q.front(), nullptr);
    EXPECT_EQ(*q.front(), i);
    q.pop_front();
  }
  EXPECT_EQ(q.front(), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, FullQueueRejectsWithoutConsumingTheValue) {
  SpscQueue<std::string> q(2);
  EXPECT_TRUE(q.try_push("a"));
  EXPECT_TRUE(q.try_push("b"));
  std::string c = "still-mine";
  EXPECT_FALSE(q.try_push(std::move(c)));
  // try_push must not move from the value on failure: the caller retries
  // with the same object (the runtime's backpressure loop relies on it).
  EXPECT_EQ(c, "still-mine");
  ASSERT_NE(q.front(), nullptr);
  EXPECT_EQ(*q.front(), "a");
  q.pop_front();
  EXPECT_TRUE(q.try_push(std::move(c)));
  ASSERT_NE(q.front(), nullptr);
  EXPECT_EQ(*q.front(), "b");
  q.pop_front();
  ASSERT_NE(q.front(), nullptr);
  EXPECT_EQ(*q.front(), "still-mine");
  q.pop_front();
}

TEST(SpscQueue, WrapsAroundManyTimes) {
  // Free-running cursors: push/pop far more items than the capacity and
  // check FIFO order survives every wrap.
  SpscQueue<std::uint64_t> q(4);
  std::uint64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 1000; ++round) {
    while (q.try_push(std::uint64_t(next_in))) ++next_in;
    while (const std::uint64_t* popped = q.front()) {
      EXPECT_EQ(*popped, next_out);
      q.pop_front();
      ++next_out;
    }
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_EQ(next_in, 4000u);  // 1000 rounds x capacity 4: many full wraps
}

TEST(SpscQueue, CarriesMoveOnlyPayloads) {
  SpscQueue<std::unique_ptr<int>> q(4);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(41)));
  EXPECT_TRUE(q.try_push(std::make_unique<int>(42)));
  ASSERT_NE(q.front(), nullptr);
  ASSERT_NE(*q.front(), nullptr);
  EXPECT_EQ(**q.front(), 41);
  q.pop_front();
  ASSERT_NE(q.front(), nullptr);
  EXPECT_EQ(**q.front(), 42);
  q.pop_front();
}

TEST(SpscQueue, DestructorDrainsUnpoppedValues) {
  // Leak-checked under ASan: values still in the ring when the queue dies
  // must be destroyed.
  auto shared = std::make_shared<int>(7);
  {
    SpscQueue<std::shared_ptr<int>> q(8);
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(q.try_push(std::shared_ptr<int>(shared)));
    }
    EXPECT_EQ(shared.use_count(), 6);
  }
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(SpscQueue, SizeTracksOccupancy) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_EQ(q.size(), 2u);
  ASSERT_NE(q.front(), nullptr);
  q.pop_front();
  EXPECT_EQ(q.size(), 1u);
}

TEST(SpscQueue, FrontLeavesTheValueInItsSlotUntilPopFront) {
  // The consumer works on the value where it lies: front() neither moves
  // nor releases it, so repeated calls see the same object, and writes
  // through the pointer stick until pop_front().
  SpscQueue<std::string> q(4);
  EXPECT_EQ(q.front(), nullptr);
  EXPECT_TRUE(q.try_push("op"));
  std::string* first = q.front();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(q.front(), first);
  first->append("-ran");
  EXPECT_EQ(*q.front(), "op-ran");
  EXPECT_EQ(q.size(), 1u);
  q.pop_front();
  EXPECT_EQ(q.front(), nullptr);
}

TEST(SpscQueue, PopFrontDestroysTheValue) {
  auto shared = std::make_shared<int>(3);
  SpscQueue<std::shared_ptr<int>> q(4);
  EXPECT_TRUE(q.try_push(std::shared_ptr<int>(shared)));
  EXPECT_EQ(shared.use_count(), 2);
  ASSERT_NE(q.front(), nullptr);
  EXPECT_EQ(shared.use_count(), 2);  // front() took no copy
  q.pop_front();
  EXPECT_EQ(shared.use_count(), 1);
}

TEST(SpscQueue, DrainedOnlyOnceTheLastValueIsPopped) {
  // empty() is the runtime's drain barrier: a value the consumer is still
  // working on (seen by front(), not yet popped) keeps the ring non-empty.
  SpscQueue<int> q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.empty());
  ASSERT_NE(q.front(), nullptr);
  q.pop_front();
  ASSERT_NE(q.front(), nullptr);
  EXPECT_FALSE(q.empty());
  q.pop_front();
  EXPECT_TRUE(q.empty());
  // And again after a wrap: the cursors are free-running.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(q.try_push(int(i)));
    ASSERT_NE(q.front(), nullptr);
    EXPECT_FALSE(q.empty());
    q.pop_front();
    EXPECT_TRUE(q.empty());
  }
}

}  // namespace
}  // namespace pls::sim
