// Fixed-size worker pool for the fleet execution engine.
//
// The pool exists so that simulated production runs — which are pure
// functions of (module, plan snapshot, workload) — can execute concurrently
// while all stateful work (server refinement, sketch building, early-exit
// decisions) stays on the coordinator thread. Tasks must not touch shared
// mutable state; the pool gives no synchronization beyond the
// submit/complete edges.
//
// `OrderedStream` is the fleet's primitive: workers execute the indices
// after the one the caller is consuming, and the caller takes the results
// strictly in index order. `ParallelFor` partitions [0, n) across the
// workers by an atomic cursor, so callers index into preallocated result
// slots and keep outputs deterministic regardless of which worker ran which
// index (the bench sweeps use it). A pool of size 1 spawns no threads at
// all — `Submit`, `ParallelFor` and the stream execute on the calling
// thread, so the sequential and parallel paths share one code path and
// `jobs=1` behaves exactly like a plain loop.

#ifndef GIST_SRC_SUPPORT_THREAD_POOL_H_
#define GIST_SRC_SUPPORT_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/support/check.h"

namespace gist {

// The most workers a command line may ask for. Callers that take a worker
// count from outside reject anything larger before a pool exists.
inline constexpr uint32_t kMaxPoolThreads = 256;

class ThreadPool {
 public:
  // `num_threads == 0` uses the hardware concurrency; `1` runs inline.
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();  // drains every queued task, then joins

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Worker count the pool resolved to (>= 1).
  uint32_t size() const { return size_; }

  // Enqueues one task; tasks start in submission order. The returned future
  // rethrows whatever the task threw.
  std::future<void> Submit(std::function<void()> task);

  // Runs body(i) for every i in [0, n), blocking until all complete. Indices
  // are handed out in order but may finish out of order; the body must write
  // only to its own index's state. If invocations throw, the exception of
  // the lowest-index failure is rethrown after the loop drains.
  void ParallelFor(uint64_t n, const std::function<void(uint64_t)>& body);

  // `std::thread::hardware_concurrency`, never 0.
  static uint32_t HardwareThreads();

 private:
  void WorkerLoop();

  uint32_t size_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool shutdown_ = false;
};

// Ordered run-ahead over a range of indices (DESIGN.md §6). The caller takes
// task(i) results one at a time, strictly in index order; meanwhile up to
// `lookahead` pool workers execute the indices after the one being taken,
// pulling them from a shared cursor. When no worker has claimed the next
// index yet, Take() runs it on the calling thread.
//
// Restart() and Cancel() move the stream to a new range (and a new task):
// indices no worker has started are never executed, results already
// produced are dropped, and runs still executing finish and are dropped
// too. The destructor waits for them. A task must therefore keep alive
// everything it reads (capture shared state by value) or outlive the
// stream, and must be a pure function of its index when results are to be
// independent of the worker count.
//
// A size-1 pool, or lookahead 0, runs nothing ahead: Take() is a plain call
// of the task on the caller, with no slot, lock or worker involved.
template <typename T>
class OrderedStream {
 public:
  using Task = std::function<T(uint64_t)>;

  OrderedStream(ThreadPool& pool, uint32_t lookahead)
      : lookahead_(pool.size() == 1 ? 0 : lookahead), slots_(lookahead_ == 0 ? 0 : lookahead_ + 1) {
    const uint32_t helpers = std::min(lookahead_, pool.size());
    helpers_.reserve(helpers);
    for (uint32_t i = 0; i < helpers; ++i) {
      helpers_.push_back(pool.Submit([this] { Work(); }));
    }
  }

  ~OrderedStream() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    claimable_.notify_all();
    for (std::future<void>& helper : helpers_) {
      helper.wait();  // a worker still running a dropped index finishes it first
    }
  }

  OrderedStream(const OrderedStream&) = delete;
  OrderedStream& operator=(const OrderedStream&) = delete;

  // Produces task(i) for i in [begin, end) from now on, dropping whatever
  // the previous range had run ahead.
  void Restart(uint64_t begin, uint64_t end, Task task) {
    std::shared_ptr<const Task> shared = std::make_shared<const Task>(std::move(task));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      DropLocked();
      head_ = cursor_ = begin;
      end_ = end;
      task_ = std::move(shared);
    }
    claimable_.notify_all();
  }

  // Stops producing: no index of the current range starts any more.
  void Cancel() {
    std::lock_guard<std::mutex> lock(mutex_);
    DropLocked();
    end_ = cursor_ = head_;
  }

  // The result of the next index; rethrows what its task threw.
  T Take() {
    if (lookahead_ == 0) {
      GIST_CHECK(head_ < end_) << "OrderedStream::Take past the end of its range";
      return (*task_)(head_++);
    }
    std::unique_lock<std::mutex> lock(mutex_);
    GIST_CHECK(head_ < end_) << "OrderedStream::Take past the end of its range";
    const uint64_t index = head_++;
    if (cursor_ == index) {
      ++cursor_;  // unclaimed: run it here rather than wait for a worker
      const std::shared_ptr<const Task> task = task_;
      const bool opened = ClaimableLocked();
      lock.unlock();
      if (opened) {
        claimable_.notify_one();
      }
      return (*task)(index);
    }
    // Taking `index` opened one more index of the window to the workers.
    // Every wake-up here and in Work() happens outside the lock, so the
    // woken thread does not wake into a held mutex.
    if (ClaimableLocked()) {
      lock.unlock();
      claimable_.notify_one();
      lock.lock();
    }
    Slot& slot = slots_[index % slots_.size()];
    if (!slot.ready) {
      awaited_ = index;
      ready_.wait(lock, [&slot] { return slot.ready; });
      awaited_ = kNone;
    }
    Slot taken = std::move(slot);
    slot = Slot();
    lock.unlock();
    if (taken.error) {
      std::rethrow_exception(taken.error);
    }
    return std::move(*taken.value);
  }

 private:
  struct Slot {
    bool ready = false;
    std::optional<T> value;
    std::exception_ptr error;
  };

  bool ClaimableLocked() const { return cursor_ < end_ && cursor_ < head_ + lookahead_; }

  // Bumps the generation so running indices drop their results on return,
  // and discards the results already produced.
  void DropLocked() {
    ++generation_;
    for (Slot& slot : slots_) {
      slot = Slot();
    }
  }

  void Work() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      claimable_.wait(lock, [this] { return stopping_ || ClaimableLocked(); });
      if (stopping_) {
        return;
      }
      const uint64_t index = cursor_++;
      const uint64_t generation = generation_;
      std::shared_ptr<const Task> task = task_;
      lock.unlock();
      Slot result;
      try {
        result.value.emplace((*task)(index));
      } catch (...) {
        result.error = std::current_exception();
      }
      result.ready = true;
      task.reset();  // a dropped range's task may hold the last reference
      lock.lock();
      if (generation == generation_) {
        slots_[index % slots_.size()] = std::move(result);
        if (awaited_ == index) {
          lock.unlock();
          ready_.notify_one();
          lock.lock();
        }
      }
    }
  }

  static constexpr uint64_t kNone = ~uint64_t{0};

  const uint32_t lookahead_;
  std::mutex mutex_;
  std::condition_variable claimable_;  // workers wait for an index to claim
  std::condition_variable ready_;      // the taker waits for its slot
  std::shared_ptr<const Task> task_;
  uint64_t head_ = 0;    // next index Take() returns
  uint64_t cursor_ = 0;  // next index nobody has claimed
  uint64_t end_ = 0;
  uint64_t generation_ = 0;
  uint64_t awaited_ = kNone;  // the index the taker sleeps on
  bool stopping_ = false;
  std::vector<Slot> slots_;  // index i lives in slots_[i % size]
  std::vector<std::future<void>> helpers_;
};

}  // namespace gist

#endif  // GIST_SRC_SUPPORT_THREAD_POOL_H_
