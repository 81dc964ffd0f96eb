#include "src/support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace gist {
namespace {

TEST(ThreadPoolTest, SizeOneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, [&](uint64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 5);
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::HardwareThreads());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr uint64_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](uint64_t i) { ++hits[i]; });
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWritesLandInIndexSlots) {
  // The merge loop depends on results[k] corresponding to index k no matter
  // which worker ran it.
  ThreadPool pool(4);
  std::vector<uint64_t> results(257);
  pool.ParallelFor(results.size(), [&](uint64_t i) { results[i] = i * i; });
  for (uint64_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i], i * i);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoOp) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [&](uint64_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  try {
    pool.ParallelFor(100, [&](uint64_t i) {
      if (i == 7 || i == 93) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 7");
  }
}

TEST(ThreadPoolTest, InlinePoolPropagatesExceptions) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(3, [&](uint64_t i) {
    if (i == 1) {
      throw std::runtime_error("inline");
    }
  }),
               std::runtime_error);
}

TEST(ThreadPoolTest, SubmitReturnsFutureThatCompletes) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  auto future = pool.Submit([&] { value = 42; });
  future.wait();
  EXPECT_EQ(value.load(), 42);
}

TEST(ThreadPoolTest, DestructorDrainsSubmittedWork) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&] { ++completed; });
    }
  }  // shutdown must run (not drop) everything already queued
  EXPECT_EQ(completed.load(), 64);
}

TEST(ThreadPoolTest, ReusableAcrossManyLoops) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(20, [&](uint64_t i) { total += i; });
  }
  EXPECT_EQ(total.load(), 50u * (19u * 20u / 2u));
}

// --- OrderedStream ----------------------------------------------------------

// Waits (bounded) until `flag` is set by a worker.
bool AwaitFlag(const std::atomic<bool>& flag) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

// Records every index a task started, from any thread.
class StartLog {
 public:
  void Add(uint64_t index) {
    std::lock_guard<std::mutex> lock(mutex_);
    started_.push_back(index);
  }
  std::vector<uint64_t> Started() {
    std::lock_guard<std::mutex> lock(mutex_);
    return started_;
  }

 private:
  std::mutex mutex_;
  std::vector<uint64_t> started_;
};

TEST(OrderedStreamTest, ResultsComeInIndexOrder) {
  ThreadPool pool(4);
  OrderedStream<uint64_t> stream(pool, 3);
  stream.Restart(10, 310, [](uint64_t i) {
    // Uneven run times, so workers finish out of order.
    std::this_thread::sleep_for(std::chrono::microseconds((i * 37) % 5 * 50));
    return i * i;
  });
  for (uint64_t i = 10; i < 310; ++i) {
    ASSERT_EQ(stream.Take(), i * i) << "index " << i;
  }
}

TEST(OrderedStreamTest, CancelSkipsUnstartedRuns) {
  ThreadPool pool(4);
  StartLog log;
  constexpr uint32_t kLookahead = 2;
  constexpr uint64_t kTaken = 5;
  {
    OrderedStream<uint64_t> stream(pool, kLookahead);
    stream.Restart(0, 1000, [&log](uint64_t i) {
      log.Add(i);
      return i;
    });
    for (uint64_t i = 0; i < kTaken; ++i) {
      ASSERT_EQ(stream.Take(), i);
    }
    stream.Cancel();
    // A new range after the cancel yields the new task's results only.
    stream.Restart(500, 520, [](uint64_t i) { return i + 1; });
    for (uint64_t i = 500; i < 520; ++i) {
      ASSERT_EQ(stream.Take(), i + 1);
    }
  }
  // Before the cancel, workers could claim only indices < kTaken + lookahead;
  // nothing of the first range started after it.
  const std::vector<uint64_t> started = log.Started();
  EXPECT_LE(started.size(), kTaken + kLookahead);
  for (uint64_t index : started) {
    EXPECT_LT(index, kTaken + kLookahead);
  }
  EXPECT_EQ(std::set<uint64_t>(started.begin(), started.end()).size(), started.size())
      << "an index of one range ran twice";
}

TEST(OrderedStreamTest, InlinePoolRunsNothingAhead) {
  for (const uint32_t pool_size : {1u, 4u}) {
    ThreadPool pool(pool_size);
    // A size-1 pool ignores the requested lookahead; lookahead 0 on a real
    // pool means the same.
    OrderedStream<uint64_t> stream(pool, pool_size == 1 ? 3 : 0);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<uint64_t> calls{0};
    std::atomic<bool> off_thread{false};
    stream.Restart(0, 100, [&](uint64_t i) {
      ++calls;
      if (std::this_thread::get_id() != caller) {
        off_thread = true;
      }
      return i;
    });
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_EQ(stream.Take(), i);
      ASSERT_EQ(calls.load(), i + 1) << "a run executed ahead of Take";
    }
    EXPECT_FALSE(off_thread.load());
  }
}

TEST(OrderedStreamTest, DestructorWaitsForRunningTasks) {
  ThreadPool pool(2);
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  {
    OrderedStream<uint64_t> stream(pool, 1);
    stream.Restart(0, 10, [&](uint64_t i) {
      if (i == 1) {
        started = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        finished = true;
      }
      return i;
    });
    ASSERT_EQ(stream.Take(), 0u);  // opens index 1 to the worker
    ASSERT_TRUE(AwaitFlag(started));
  }
  EXPECT_TRUE(finished.load());
}

TEST(OrderedStreamTest, ConsumedExceptionSurfacesDiscardedOneDoesNot) {
  ThreadPool pool(4);
  OrderedStream<uint64_t> stream(pool, 3);
  std::atomic<bool> seven_threw{false};
  auto task = [&seven_threw](uint64_t i) -> uint64_t {
    if (i == 2) {
      throw std::runtime_error("consumed " + std::to_string(i));
    }
    if (i == 7) {
      seven_threw = true;
      throw std::runtime_error("discarded " + std::to_string(i));
    }
    return i;
  };
  stream.Restart(0, 100, task);
  EXPECT_EQ(stream.Take(), 0u);
  EXPECT_EQ(stream.Take(), 1u);
  try {
    stream.Take();
    FAIL() << "expected the exception of index 2";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "consumed 2");
  }
  for (uint64_t i = 3; i < 6; ++i) {
    EXPECT_EQ(stream.Take(), i);
  }
  // Indices 6..8 are open to the workers now; wait until 7 has thrown, then
  // drop it with the rest of the range.
  ASSERT_TRUE(AwaitFlag(seven_threw));
  stream.Restart(6, 7, task);
  EXPECT_EQ(stream.Take(), 6u);
  stream.Cancel();
}

TEST(OrderedStreamTest, InlineStreamPropagatesExceptions) {
  ThreadPool pool(1);
  OrderedStream<uint64_t> stream(pool, 0);
  stream.Restart(0, 3, [](uint64_t i) -> uint64_t {
    if (i == 1) {
      throw std::runtime_error("inline");
    }
    return i;
  });
  EXPECT_EQ(stream.Take(), 0u);
  EXPECT_THROW(stream.Take(), std::runtime_error);
  EXPECT_EQ(stream.Take(), 2u);
}

}  // namespace
}  // namespace gist
