// MultiPass: "execute several independent runs of the sorted neighborhood
// method, each time using a different key and a relatively small window
// ... then apply the transitive closure to those pairs of records. The
// results will be a union of all pairs discovered by all independent runs,
// with no duplicates, plus all those pairs that can be inferred by
// transitivity of equality." (paper §2.4)

#ifndef MERGEPURGE_CORE_MULTIPASS_H_
#define MERGEPURGE_CORE_MULTIPASS_H_

#include <vector>

#include "core/clustering_method.h"
#include "core/sorted_neighborhood.h"
#include "core/union_find.h"
#include "keys/key_builder.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

// Computes the transitive closure of the given pair sets over n tuples and
// returns per-tuple component labels (tuples in the same component are
// declared the same entity).
std::vector<uint32_t> TransitiveClosure(
    const std::vector<const PairSet*>& pair_sets, size_t n);

// Convenience for a single pair set.
std::vector<uint32_t> TransitiveClosure(const PairSet& pairs, size_t n);

struct MultiPassResult {
  std::vector<PassResult> passes;        // One per key, in input order.
  std::vector<uint32_t> component_of;    // Closure over all passes' pairs.
  double closure_seconds = 0.0;
  double total_seconds = 0.0;            // Sum of pass times + closure.

  // Number of distinct pairs across all passes before closure.
  uint64_t union_pair_count = 0;

  // Checkpointed runs: passes loaded from disk instead of computed.
  size_t passes_resumed = 0;
};

class MultiPass {
 public:
  enum class Method { kSortedNeighborhood, kClustering };

  // `threads` workers scan each sorted-neighborhood pass (0: one per
  // hardware thread; see ParallelSnm). Results do not depend on it. The
  // clustering method runs serially.
  MultiPass(Method method, size_t window,
            ClusteringOptions clustering_options = ClusteringOptions(),
            size_t threads = 1)
      : method_(method),
        window_(window),
        clustering_options_(clustering_options),
        threads_(threads) {
    clustering_options_.window = window;
  }

  // Runs one pass per key and closes over the union of the results. The
  // theory is used as ParallelSnm::Run uses it: sorted-neighborhood passes
  // compare with its clones when it can clone.
  Result<MultiPassResult> Run(const Dataset& dataset,
                              const std::vector<KeySpec>& keys,
                              const EquationalTheory& theory) const;

  // Checkpointed variant: after each pass, persists that pass's pairs and
  // a manifest under `checkpoint_dir` (created if missing; see
  // core/checkpoint.h for the crash-consistency protocol). Passes whose
  // manifest matches the current dataset/key/config identity are loaded
  // from disk and skipped; the closure is always recomputed. An empty dir
  // behaves exactly like Run() above.
  Result<MultiPassResult> Run(const Dataset& dataset,
                              const std::vector<KeySpec>& keys,
                              const EquationalTheory& theory,
                              const std::string& checkpoint_dir) const;

 private:
  Result<PassResult> RunOnePass(const Dataset& dataset, const KeySpec& key,
                                const EquationalTheory& theory) const;
  uint64_t ConfigDigest() const;

  Method method_;
  size_t window_;
  ClusteringOptions clustering_options_;
  size_t threads_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_MULTIPASS_H_
