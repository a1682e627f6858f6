// A fixed-size worker pool used by the parallel merge/purge implementations.
//
// Design notes: the shared-nothing coordinator in src/parallel assigns whole
// fragments or clusters as tasks; tasks are coarse, so a simple mutex-guarded
// queue is sufficient (no work stealing needed). Wait() provides a barrier so
// phases (cluster -> sort -> window-scan) stay ordered as in the paper.

#ifndef MERGEPURGE_UTIL_THREAD_POOL_H_
#define MERGEPURGE_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace mergepurge {

// The worker count a `threads` option asks for: `requested`, or one per
// hardware thread when it is 0.
size_t ResolveThreadCount(size_t requested);

// Runs fn(begin, end) once for each of `parts` contiguous, near-equal
// parts of [0, n), in parallel on a pool of that many threads, and returns
// when all have finished. `parts` is clamped to [1, n]; one part runs on
// the calling thread. An exception thrown by fn is rethrown here as
// std::runtime_error after every part has finished.
void ParallelFor(size_t n, size_t parts,
                 const std::function<void(size_t, size_t)>& fn);

class ThreadPool {
 public:
  // Spawns num_threads workers. num_threads == 0 is clamped to 1.
  explicit ThreadPool(size_t num_threads);

  // Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. A task that throws is caught by the worker (the pool
  // survives); the count and first exception message are retrievable via
  // exceptions_caught() / first_exception_message().
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  // Index in [0, num_threads()) of the pool thread running the calling
  // task; 0 outside any pool. One thread runs one task at a time, so
  // scratch state indexed by it needs no lock.
  static size_t CurrentThreadIndex();

  // Number of tasks that exited via an exception since construction.
  size_t exceptions_caught() const;

  // what() of the first caught exception ("" if none; "unknown exception"
  // for non-std::exception throws).
  std::string first_exception_message() const;

 private:
  void WorkerLoop(size_t index);

  mutable Mutex mu_{lockrank::kThreadPool};
  CondVar task_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ MERGEPURGE_GUARDED_BY(mu_);
  size_t in_flight_ MERGEPURGE_GUARDED_BY(mu_) = 0;
  bool shutting_down_ MERGEPURGE_GUARDED_BY(mu_) = false;
  size_t exceptions_caught_ MERGEPURGE_GUARDED_BY(mu_) = 0;
  std::string first_exception_message_ MERGEPURGE_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_UTIL_THREAD_POOL_H_
