// Parallel sorted-neighborhood method (paper §4.1): sort, cut the sorted
// list into owned fragments, and window-scan the fragments on worker
// threads. This is the one SNM pass of the merge phase: MultiPass (and so
// MergePurgeEngine::Run) runs every sorted-neighborhood pass through it,
// one thread or many. Each fragment is scanned by the owned-range rule of
// core/window_scanner.h, so the fragments compare exactly the pairs of
// the serial scan, each once, and produce exactly its pair set.

#ifndef MERGEPURGE_CORE_PARALLEL_SNM_H_
#define MERGEPURGE_CORE_PARALLEL_SNM_H_

#include <vector>

#include "core/sorted_neighborhood.h"
#include "keys/key_builder.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/resilient_runner.h"
#include "util/status.h"

namespace mergepurge {

// A pass's result plus how the parallel executor ran it.
struct ParallelRunResult : PassResult {
  // Per-worker busy time in the scan phase (for load-balance reporting).
  std::vector<double> worker_busy_seconds;
  // Fault-tolerance accounting (see ResilientRunner): re-attempts after
  // task failures and speculative straggler re-executions.
  uint64_t retries = 0;
  uint64_t speculations = 0;
};

class ParallelSnm {
 public:
  // `threads` workers (0: one per hardware thread); window as in the
  // serial method. block_records > 0 selects the paper's memory-bounded
  // block-cyclic distribution (§4.1: the coordinator streams blocks of M
  // records round-robin to the sites); 0 selects owned fragments of about
  // 1024 positions, at least one per thread, dealt round-robin.
  // `resilience` tunes retry/backoff/deadline behaviour for lost or slow
  // fragment scans (num_workers is overridden with the thread count).
  ParallelSnm(size_t threads, size_t window, size_t block_records = 0,
              ResilientOptions resilience = ResilientOptions());

  // Runs one pass with `key`. The workers compare with clones of `theory`
  // (EquationalTheory::Clone) made on the calling thread; a theory that
  // cannot clone runs itself on one worker. Each committed fragment
  // flushes its clone's metrics, so the registry counts every comparison
  // once; `theory` itself is only read unless it cannot clone. When
  // fragment scans keep failing past the retry budget, returns a
  // PartialFailure status naming the unprocessed fragments (no partial
  // pair set is returned: a missing fragment would silently corrupt the
  // downstream closure).
  Result<ParallelRunResult> Run(const Dataset& dataset, const KeySpec& key,
                                const EquationalTheory& theory) const;

 private:
  size_t threads_;
  size_t window_;
  size_t block_records_;
  ResilientOptions resilience_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_PARALLEL_SNM_H_
