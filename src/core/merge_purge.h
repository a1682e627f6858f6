// MergePurgeEngine: the top-level public API. One call runs the complete
// pipeline of the paper: condition the concatenated record list, run one or
// more merge passes (sorted-neighborhood or clustering method) with the
// given keys, compute the transitive closure, and optionally purge —
// collapse each equivalence class into one merged record.
//
// Typical use (see examples/quickstart.cpp):
//
//   MergePurgeOptions options;
//   options.keys = StandardThreeKeys();   // multi-pass over 3 keys
//   options.window = 10;
//   MergePurgeEngine engine(options);
//   EmployeeTheory theory;
//   auto result = engine.Run(dataset, theory);
//   Dataset deduped = result->Purge(dataset);

#ifndef MERGEPURGE_CORE_MERGE_PURGE_H_
#define MERGEPURGE_CORE_MERGE_PURGE_H_

#include <vector>

#include "core/multipass.h"
#include "keys/key_builder.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

struct MergePurgeOptions {
  using Method = MultiPass::Method;

  Method method = Method::kSortedNeighborhood;

  // Sort keys; one entry = single pass, several = multi-pass + closure.
  std::vector<KeySpec> keys;

  // Window size of the merge phase.
  size_t window = 10;

  // Clustering-method tuning (used when method == kClustering).
  ClusteringOptions clustering;

  // Condition (normalize) the records before merging (paper §3.2). The
  // engine conditions a private copy; the caller's dataset is untouched.
  bool condition_records = true;

  // Run the corpus spelling corrector over the city field during
  // conditioning (paper §3.2: improves detected duplicates by ~1.5-2%).
  bool spell_correct_city = false;

  // Worker threads of each sorted-neighborhood pass's window scan: 0 (the
  // default) means one per hardware thread, 1 scans serially. Results
  // (pairs, labels, every count) do not depend on it, so checkpoints
  // ignore it. The clustering method always runs serially.
  size_t threads = 0;

  // Non-empty: checkpoint each pass's pairs under this directory and
  // resume from any pass already completed there with matching inputs and
  // parameters (core/checkpoint.h). The CLI exposes this as --resume=DIR.
  std::string checkpoint_dir;
};

struct MergePurgeResult {
  // Per-tuple equivalence-class labels after the transitive closure.
  std::vector<uint32_t> component_of;

  // Per-pass details and closure timing.
  MultiPassResult detail;

  // Number of distinct entities found (equivalence classes).
  size_t num_entities = 0;

  // Purge phase: produces one merged record per entity. Fields are merged
  // by completeness — for each field the longest non-empty value among the
  // class's records wins (a simple instance of the paper's "data-directed
  // projection"). Records must be the dataset the result was computed on.
  Dataset Purge(const Dataset& dataset) const;
};

class MergePurgeEngine {
 public:
  explicit MergePurgeEngine(MergePurgeOptions options);

  const MergePurgeOptions& options() const { return options_; }

  // Runs merge (and closure) over the dataset. Each sorted-neighborhood
  // pass scans on `options().threads` workers, each comparing with its own
  // clone of `theory` (EquationalTheory::Clone), made on the calling
  // thread; a theory that cannot clone scans on one worker itself. So the
  // run's comparison counts live in the result (detail.passes[k]
  // .comparisons) and in the metrics registry (snm.comparisons, and the
  // theory's rules.* counters, flushed once per committed fragment) —
  // not in `theory.comparison_count()`, which only a theory that cannot
  // clone, or the clustering method, advances.
  Result<MergePurgeResult> Run(const Dataset& dataset,
                               const EquationalTheory& theory) const;

 private:
  MergePurgeOptions options_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_MERGE_PURGE_H_
