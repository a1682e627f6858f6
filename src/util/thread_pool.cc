#include "util/thread_pool.h"

#include <algorithm>
#include <stdexcept>

namespace mergepurge {

namespace {
thread_local size_t current_thread_index = 0;
}  // namespace

size_t ResolveThreadCount(size_t requested) {
  if (requested > 0) return requested;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

void ParallelFor(size_t n, size_t parts,
                 const std::function<void(size_t, size_t)>& fn) {
  parts = std::max<size_t>(1, std::min(parts, n));
  if (parts == 1) {
    fn(0, n);
    return;
  }
  ThreadPool pool(parts);
  for (size_t part = 0; part < parts; ++part) {
    pool.Submit([&fn, n, parts, part] {
      fn(n * part / parts, n * (part + 1) / parts);
    });
  }
  pool.Wait();
  if (pool.exceptions_caught() > 0) {
    throw std::runtime_error(pool.first_exception_message());
  }
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

size_t ThreadPool::CurrentThreadIndex() { return current_thread_index; }

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  task_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) all_done_.Wait(mu_);
}

size_t ThreadPool::exceptions_caught() const {
  MutexLock lock(mu_);
  return exceptions_caught_;
}

std::string ThreadPool::first_exception_message() const {
  MutexLock lock(mu_);
  return first_exception_message_;
}

void ThreadPool::WorkerLoop(size_t index) {
  current_thread_index = index;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) task_available_.Wait(mu_);
      if (queue_.empty()) {
        // shutting_down_ must be true here.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    std::string exception_message;
    bool threw = false;
    try {
      task();
    } catch (const std::exception& e) {
      threw = true;
      exception_message = e.what();
    } catch (...) {
      threw = true;
      exception_message = "unknown exception";
    }
    {
      MutexLock lock(mu_);
      if (threw) {
        if (exceptions_caught_ == 0) {
          first_exception_message_ = std::move(exception_message);
        }
        ++exceptions_caught_;
      }
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

}  // namespace mergepurge
