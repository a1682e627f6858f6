#include "util/resilient_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace mergepurge {

using Clock = std::chrono::steady_clock;

struct ResilientRunner::TaskState {
  size_t attempts_started = 0;
  size_t active_attempts = 0;
  size_t initial_worker = 0;
  size_t final_worker = 0;
  bool committed = false;
  bool exhausted = false;
  bool speculated = false;
  Status last_error;
  Rng jitter{1};
  Clock::time_point active_start;

  bool terminal() const { return committed || exhausted; }
};

struct ResilientRunner::RunContext {
  explicit RunContext(size_t num_workers) : pool(num_workers) {}

  Mutex mu{lockrank::kResilientRun};
  CondVar cv;
  // Set once before any attempt is submitted, then read-only.
  const std::vector<ResilientTask>* tasks = nullptr;
  std::vector<TaskState> states MERGEPURGE_GUARDED_BY(mu);
  size_t terminal_count MERGEPURGE_GUARDED_BY(mu) = 0;
  uint64_t retries MERGEPURGE_GUARDED_BY(mu) = 0;
  uint64_t speculations MERGEPURGE_GUARDED_BY(mu) = 0;
  ThreadPool pool;  // Last member: destroyed first, before states.
};

ResilientRunner::ResilientRunner(ResilientOptions options)
    : options_(options) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.max_attempts_per_worker == 0) {
    options_.max_attempts_per_worker = 1;
  }
  if (options_.max_workers_per_task == 0) options_.max_workers_per_task = 1;
  options_.max_workers_per_task =
      std::min(options_.max_workers_per_task, options_.num_workers);
}

bool AttemptContext::Commit(const std::function<void()>& apply) const {
  return runner->CommitTask(task_index, worker, apply);
}

ResilientReport ResilientRunner::Run(
    const std::vector<ResilientTask>& tasks,
    const std::vector<size_t>& initial_workers) {
  ResilientReport report;
  if (tasks.empty()) {
    report.status = Status::OK();
    return report;
  }

  Span run_span("resilient-run");
  run_span.AddArg("tasks", static_cast<uint64_t>(tasks.size()));
  run_span.AddArg("workers", static_cast<uint64_t>(options_.num_workers));

  RunContext run(options_.num_workers);
  run.tasks = &tasks;
  run_ = &run;

  std::vector<size_t> first_workers(tasks.size());
  {
    MutexLock lock(run.mu);
    run.states.resize(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) {
      TaskState& state = run.states[i];
      state.initial_worker = i < initial_workers.size()
                                 ? initial_workers[i] % options_.num_workers
                                 : i % options_.num_workers;
      state.jitter =
          Rng(options_.jitter_seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
      first_workers[i] = state.initial_worker;
    }
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    StartAttempt(i, 1, first_workers[i], /*speculative=*/false);
  }

  // Wait for every task to commit or exhaust; with a deadline configured,
  // wake periodically to launch speculative copies of stragglers.
  {
    MutexLock lock(run.mu);
    const bool monitor = options_.task_deadline_ms > 0;
    const auto poll = std::chrono::milliseconds(
        monitor ? std::max(1, options_.task_deadline_ms / 4) : 1000);
    while (run.terminal_count < tasks.size()) {
      run.cv.WaitFor(run.mu, poll);
      if (!monitor) continue;
      const auto now = Clock::now();
      const size_t budget =
          options_.max_attempts_per_worker * options_.max_workers_per_task;
      for (size_t i = 0; i < run.states.size(); ++i) {
        TaskState& state = run.states[i];
        if (state.terminal() || state.speculated ||
            state.active_attempts == 0 || state.attempts_started >= budget) {
          continue;
        }
        auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
                       now - state.active_start)
                       .count();
        if (age < options_.task_deadline_ms) continue;
        state.speculated = true;
        ++run.speculations;
        size_t next_attempt = state.attempts_started + 1;
        size_t worker_slot =
            (next_attempt - 1) / options_.max_attempts_per_worker;
        size_t worker = (state.initial_worker + worker_slot + 1) %
                        options_.num_workers;
        lock.Unlock();
        StartAttempt(i, next_attempt, worker, /*speculative=*/true);
        lock.Lock();
      }
    }
  }

  // Drain straggler attempts before collecting outcomes: every task is
  // terminal, so leftover attempts belong to already-committed tasks and
  // their commits are refused by the committed flag (exactly-once).
  run.pool.Wait();

  {
    MutexLock lock(run.mu);
    report.outcomes.resize(run.states.size());
    for (size_t i = 0; i < run.states.size(); ++i) {
      const TaskState& state = run.states[i];
      TaskOutcome& outcome = report.outcomes[i];
      outcome.attempts = state.attempts_started;
      outcome.final_worker = state.final_worker;
      outcome.committed = state.committed;
      outcome.speculated = state.speculated;
      outcome.last_error = state.last_error;
      if (!state.committed) report.unprocessed.push_back(i);
    }
    report.retries = run.retries;
    report.speculations = run.speculations;
  }
  run_ = nullptr;

  // One flush per Run: attempt bookkeeping is exact here (pool drained).
  {
    MetricsRegistry& registry = MetricsRegistry::Global();
    static Counter* const retries =
        registry.GetCounter(metric_names::kResilientRetries);
    static Counter* const speculations =
        registry.GetCounter(metric_names::kResilientSpeculations);
    static Counter* const exhausted =
        registry.GetCounter(metric_names::kResilientExhausted);
    static Counter* const parallel_tasks =
        registry.GetCounter(metric_names::kParallelTasks);
    retries->Add(report.retries);
    speculations->Add(report.speculations);
    exhausted->Add(static_cast<uint64_t>(report.unprocessed.size()));

    std::vector<uint64_t> per_worker(options_.num_workers, 0);
    uint64_t committed = 0;
    for (const TaskOutcome& outcome : report.outcomes) {
      if (!outcome.committed) continue;
      ++committed;
      if (outcome.final_worker < per_worker.size()) {
        ++per_worker[outcome.final_worker];
      }
    }
    parallel_tasks->Add(committed);
    for (size_t w = 0; w < per_worker.size(); ++w) {
      if (per_worker[w] == 0) continue;
      registry
          .GetCounter(std::string(metric_names::kParallelWorkerTasksPrefix) +
                      std::to_string(w))
          ->Add(per_worker[w]);
    }
  }

  if (report.unprocessed.empty()) {
    report.status = Status::OK();
  } else {
    std::string list;
    for (size_t index : report.unprocessed) {
      if (!list.empty()) list += ",";
      list += std::to_string(index);
    }
    report.status = Status::PartialFailure(StringPrintf(
        "%zu of %zu tasks unprocessed after retries: [%s]",
        report.unprocessed.size(), report.outcomes.size(), list.c_str()));
  }
  return report;
}

void ResilientRunner::StartAttempt(size_t task_index, size_t attempt,
                                   size_t worker, bool speculative) {
  RunContext& run = *run_;
  int delay_ms = 0;
  {
    MutexLock lock(run.mu);
    TaskState& state = run.states[task_index];
    ++state.attempts_started;
    ++state.active_attempts;
    if (attempt > 1 && !speculative) {
      delay_ms = BackoffDelayMs(state, attempt);
    }
  }
  const Clock::time_point submitted = Clock::now();
  run.pool.Submit([this, task_index, attempt, worker, delay_ms, submitted] {
    // Queue wait: submission until a pool thread picks the attempt up
    // (before any backoff sleep, which is intentional delay, not queueing).
    static LatencyHistogram* const queue_wait_us =
        MetricsRegistry::Global().GetHistogram(
            metric_names::kResilientQueueWaitUs);
    queue_wait_us->Record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              submitted)
            .count()));
    ExecuteAttempt(task_index, attempt, worker, delay_ms);
  });
}

void ResilientRunner::ExecuteAttempt(size_t task_index, size_t attempt,
                                     size_t worker, int delay_ms) {
  RunContext& run = *run_;
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }

  {
    MutexLock lock(run.mu);
    TaskState& state = run.states[task_index];
    if (state.committed) {
      // A concurrent (speculative) attempt already won; skip the work.
      --state.active_attempts;
      run.cv.NotifyAll();
      return;
    }
    state.active_start = Clock::now();
  }

  AttemptContext context;
  context.task_index = task_index;
  context.attempt = attempt;
  context.worker = worker;
  context.thread = ThreadPool::CurrentThreadIndex();
  context.runner = this;
  Status status = (*run.tasks)[task_index](context);

  MutexLock lock(run.mu);
  TaskState& state = run.states[task_index];
  --state.active_attempts;
  if (status.ok()) {
    // OK means the attempt ran to completion; Commit() (if the task has
    // side effects) already published them exactly once.
    if (!state.committed) {
      state.committed = true;
      state.final_worker = worker;
      ++run.terminal_count;
    }
    run.cv.NotifyAll();
    return;
  }

  state.last_error = status;
  if (state.committed) {
    // A different attempt already succeeded; nothing to do.
    run.cv.NotifyAll();
    return;
  }

  const size_t budget =
      options_.max_attempts_per_worker * options_.max_workers_per_task;
  if (state.attempts_started < budget) {
    size_t next_attempt = state.attempts_started + 1;
    size_t worker_slot =
        (next_attempt - 1) / options_.max_attempts_per_worker;
    size_t next_worker =
        (state.initial_worker + worker_slot) % options_.num_workers;
    ++run.retries;
    lock.Unlock();
    StartAttempt(task_index, next_attempt, next_worker,
                 /*speculative=*/false);
    return;
  }
  if (state.active_attempts == 0) {
    state.exhausted = true;
    state.final_worker = worker;
    ++run.terminal_count;
  }
  run.cv.NotifyAll();
}

int ResilientRunner::BackoffDelayMs(TaskState& state, size_t attempt) {
  // Delay before attempt k (k >= 2): min(base * mult^(k-2), cap) plus
  // deterministic per-task jitter in [0, base) to de-synchronize retries.
  double delay =
      static_cast<double>(options_.backoff_base_ms) *
      std::pow(options_.backoff_multiplier, static_cast<double>(attempt - 2));
  delay = std::min(delay, static_cast<double>(options_.backoff_cap_ms));
  uint64_t jitter = state.jitter.NextBounded(
      static_cast<uint64_t>(std::max(1, options_.backoff_base_ms)));
  return static_cast<int>(delay) + static_cast<int>(jitter);
}

bool ResilientRunner::CommitTask(size_t task_index, size_t worker,
                                 const std::function<void()>& apply) {
  RunContext& run = *run_;
  MutexLock lock(run.mu);
  TaskState& state = run.states[task_index];
  if (state.committed) return false;
  // Commits from different tasks are serialized by run.mu, so `apply` may
  // merge into shared aggregates without extra locking.
  apply();
  state.committed = true;
  state.final_worker = worker;
  ++run.terminal_count;
  run.cv.NotifyAll();
  return true;
}

}  // namespace mergepurge
