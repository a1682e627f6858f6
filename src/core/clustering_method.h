// ClusteringMethod: one pass of the clustering variant (paper §2.2.1).
//
// Phase 1 (cluster data): extract a fixed-size key per record and assign
// it to one of C equi-depth clusters via the key-prefix histogram.
// Phase 2: run the sorted-neighborhood method independently inside each
// cluster — sorting by the SAME fixed-size key extracted in phase 1
// ("We do not need, however, to recompute a key ... We can use the key
// extracted above for sorting"). The fixed key is what costs the method
// accuracy relative to full-key SNM (paper §3.4); set
// ClusteringOptions::sort_with_full_key to ablate that choice.

#ifndef MERGEPURGE_CORE_CLUSTERING_METHOD_H_
#define MERGEPURGE_CORE_CLUSTERING_METHOD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sorted_neighborhood.h"
#include "keys/key_builder.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

struct ClusteringOptions {
  // Number of clusters ("initially divided the data into 32 clusters ...
  // chosen to match the fan-out of the merge-sort algorithm", §3.4).
  size_t num_clusters = 32;

  // Window for the per-cluster scans.
  size_t window = 10;

  // Leading characters of each variable-length key component kept in the
  // fixed-size cluster key (the paper's 3-letter example).
  size_t fixed_key_prefix = 3;

  // Histogram depth (prefix characters -> 27^depth bins).
  size_t histogram_depth = 3;

  // Sample size for the histogram; 0 = exact scan of all keys.
  size_t histogram_sample = 0;

  // Ablation: sort clusters by the full variable-length key instead of the
  // fixed cluster key (closes the accuracy gap vs SNM; not what the paper's
  // clustering method does).
  bool sort_with_full_key = false;

  uint64_t seed = 7;
};

struct ClusterStats {
  size_t num_clusters = 0;
  size_t largest_cluster = 0;
  size_t smallest_cluster = 0;
  size_t empty_clusters = 0;
};

// Phase 1 of the clustering method, for the serial and the parallel run:
// fixed-size keys -> key-prefix histogram -> equi-depth clusters.
struct ClusterPartition {
  std::vector<std::vector<TupleId>> clusters;  // Ascending ids; may be empty.
  // Per tuple id, the phase-2 sort key for KeyOrder: the fixed cluster
  // key, or the full key with ClusteringOptions::sort_with_full_key.
  std::vector<std::string> sort_keys;
};

// Partitions `dataset` into `num_clusters` (>= 1) clusters by `key`.
Result<ClusterPartition> PartitionClusters(const Dataset& dataset,
                                           const KeySpec& key,
                                           const ClusteringOptions& options,
                                           size_t num_clusters);

class ClusteringMethod {
 public:
  explicit ClusteringMethod(ClusteringOptions options) : options_(options) {}

  const ClusteringOptions& options() const { return options_; }

  // Runs one clustering-method pass with `key` over `dataset`.
  Result<PassResult> Run(const Dataset& dataset, const KeySpec& key,
                         const EquationalTheory& theory) const;

  // Statistics of the most recent Run's partition (for load-balance and
  // skew reporting).
  const ClusterStats& last_cluster_stats() const { return last_stats_; }

 private:
  ClusteringOptions options_;
  mutable ClusterStats last_stats_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_CLUSTERING_METHOD_H_
