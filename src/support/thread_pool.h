// Fixed-size worker pool for the fleet execution engine.
//
// The pool exists so that simulated production runs — which are pure
// functions of (module, plan snapshot, workload) — can execute concurrently
// while all stateful work (server refinement, sketch building, early-exit
// decisions) stays on the coordinator thread. Tasks must not touch shared
// mutable state; the pool gives no synchronization beyond the
// submit/complete edges.
//
// `ParallelFor` is the workhorse: it partitions [0, n) across the workers by
// an atomic cursor, so callers index into preallocated result slots and keep
// outputs deterministic regardless of which worker ran which index. A pool
// of size 1 spawns no threads at all — `Submit` and `ParallelFor` execute on
// the calling thread, so the sequential and parallel fleet paths share one
// code path and `jobs=1` behaves exactly like a plain loop.

#ifndef GIST_SRC_SUPPORT_THREAD_POOL_H_
#define GIST_SRC_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

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

}  // namespace gist

#endif  // GIST_SRC_SUPPORT_THREAD_POOL_H_
