// ResilientRunner: fault-tolerant task execution for the shared-nothing
// executors. The paper's §4 coordinator deals fragments to sites and
// assumes every site finishes; a lost task would silently lose pairs and
// corrupt the transitive closure. The runner closes that gap:
//
//   * every attempt returns a Status (captured, never thrown away);
//   * failed tasks are retried on their assigned worker with capped
//     exponential backoff + deterministic jitter;
//   * after max_attempts_per_worker failures the task is reassigned to a
//     different (virtual) worker, up to max_workers_per_task sites;
//   * a per-task deadline triggers speculative re-execution of stragglers
//     on another worker; the first completed attempt wins. This is safe
//     for merge/purge work because fragment scans are idempotent and
//     PairSet union is order-independent — duplicate execution changes
//     nothing, and the commit protocol below makes the side effects
//     exactly-once anyway;
//   * when all retries are exhausted the run reports a PartialFailure
//     Status naming the exact set of unprocessed tasks, so callers can
//     re-deal just those fragments.
//
// Commit protocol: an attempt buffers its results locally and publishes
// them through AttemptContext::Commit(apply). Commit runs `apply` at most
// once per task across all (possibly concurrent, speculative) attempts, so
// counters like `comparisons` are not double-counted.

#ifndef MERGEPURGE_UTIL_RESILIENT_RUNNER_H_
#define MERGEPURGE_UTIL_RESILIENT_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace mergepurge {

struct ResilientOptions {
  // Virtual worker count == thread count of the underlying pool.
  size_t num_workers = 1;

  // Attempts allowed on each worker a task lands on (>= 1).
  size_t max_attempts_per_worker = 2;

  // Distinct workers a task may be assigned to (>= 1). Total attempt
  // budget per task = max_attempts_per_worker * max_workers_per_task.
  size_t max_workers_per_task = 2;

  // Retry backoff: delay before attempt k (k >= 2) is
  //   min(base * multiplier^(k-2), cap) + jitter in [0, base)
  // drawn from a deterministic per-task stream seeded by jitter_seed.
  int backoff_base_ms = 1;
  double backoff_multiplier = 2.0;
  int backoff_cap_ms = 50;
  uint64_t jitter_seed = 0x5eed;

  // Straggler deadline: if > 0 and an attempt has not completed within
  // this many ms, one speculative copy is started on another worker.
  int task_deadline_ms = 0;
};

// Passed to each attempt.
class ResilientRunner;
struct AttemptContext {
  size_t task_index = 0;
  size_t attempt = 1;    // 1-based, across workers.
  size_t worker = 0;     // Virtual worker (site) id.
  // Pool thread running the attempt, in [0, num_workers). Unlike
  // `worker`, no other attempt runs on it at the same time, so per-thread
  // scratch state may be indexed by it without a lock.
  size_t thread = 0;

  // Publishes the attempt's buffered results. Runs `apply` iff no other
  // attempt of this task has committed yet; returns whether `apply` ran.
  bool Commit(const std::function<void()>& apply) const;

  ResilientRunner* runner = nullptr;
};

// An attempt body: returns OK on success. Must be idempotent and safe to
// run concurrently with a speculative copy of itself.
using ResilientTask = std::function<Status(const AttemptContext&)>;

struct TaskOutcome {
  size_t attempts = 0;        // Attempts actually started.
  size_t final_worker = 0;    // Worker of the committed/last attempt.
  bool committed = false;
  bool speculated = false;    // A speculative copy was launched.
  Status last_error;          // Most recent non-OK attempt status.
};

struct ResilientReport {
  std::vector<TaskOutcome> outcomes;
  std::vector<size_t> unprocessed;  // Task indices that never committed.
  uint64_t retries = 0;             // Re-attempts after failures.
  uint64_t speculations = 0;        // Straggler re-executions launched.

  // OK when every task committed; otherwise PartialFailure naming the
  // unprocessed task indices.
  Status status;
};

class ResilientRunner {
 public:
  explicit ResilientRunner(ResilientOptions options);

  // Runs all tasks to completion (or retry exhaustion). Blocking; the
  // runner owns a ThreadPool of options.num_workers threads for the call.
  // `initial_workers` optionally assigns each task's starting (virtual)
  // worker — e.g. the LPT assignment of the clustering coordinator; when
  // empty, tasks are dealt round-robin. Reassignment after repeated
  // failure rotates from the initial worker.
  ResilientReport Run(const std::vector<ResilientTask>& tasks,
                      const std::vector<size_t>& initial_workers = {});

 private:
  friend struct AttemptContext;
  struct TaskState;

  void StartAttempt(size_t task_index, size_t attempt, size_t worker,
                    bool speculative);
  void ExecuteAttempt(size_t task_index, size_t attempt, size_t worker,
                      int delay_ms);
  bool CommitTask(size_t task_index, size_t worker,
                  const std::function<void()>& apply);
  int BackoffDelayMs(TaskState& state, size_t attempt);

  ResilientOptions options_;

  // Valid only during Run().
  struct RunContext;
  RunContext* run_ = nullptr;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_UTIL_RESILIENT_RUNNER_H_
