#include "core/clustering_method.h"

#include <algorithm>
#include <utility>

#include "cluster/partitioner.h"
#include "core/window_scanner.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace mergepurge {

Result<ClusterPartition> PartitionClusters(const Dataset& dataset,
                                           const KeySpec& key,
                                           const ClusteringOptions& options,
                                           size_t num_clusters) {
  ClusterPartition partition;
  std::vector<std::string> cluster_keys =
      KeyBuilder(key.FixedWidth(options.fixed_key_prefix)).BuildKeys(dataset);
  Rng rng(options.seed);
  Histogram histogram =
      BuildHistogram(cluster_keys, options.histogram_depth,
                     options.histogram_sample, &rng);
  Result<KeyPartitioner> partitioner =
      KeyPartitioner::FromHistogram(histogram, num_clusters);
  if (!partitioner.ok()) return partitioner.status();

  partition.clusters.resize(partitioner->num_clusters());
  for (size_t t = 0; t < dataset.size(); ++t) {
    partition.clusters[partitioner->ClusterOf(cluster_keys[t])].push_back(
        static_cast<TupleId>(t));
  }

  // Sort key: the fixed cluster key (paper), or the full key (ablation).
  partition.sort_keys = options.sort_with_full_key
                            ? KeyBuilder(key).BuildKeys(dataset)
                            : std::move(cluster_keys);
  return partition;
}

Result<PassResult> ClusteringMethod::Run(
    const Dataset& dataset, const KeySpec& key,
    const EquationalTheory& theory) const {
  if (options_.window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  if (options_.num_clusters == 0) {
    return Status::InvalidArgument("num_clusters must be >= 1");
  }
  MERGEPURGE_RETURN_NOT_OK(KeyBuilder(key).Validate(dataset.schema()));
  if (dataset.empty()) {
    PassResult empty;
    empty.key_name = key.name;
    return empty;
  }

  static Counter* const passes_counter =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmPasses);
  static LatencyHistogram* const sort_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmSortUs);
  static LatencyHistogram* const scan_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmScanUs);

  Span pass_span("clustering-pass");
  pass_span.AddArg("key", key.name);

  PassResult result;
  result.key_name = key.name;
  Timer total;

  // --- Phase 1: extract the fixed-size key and cluster the data. ---
  Timer phase;
  Result<ClusterPartition> partition =
      PartitionClusters(dataset, key, options_, options_.num_clusters);
  if (!partition.ok()) return partition.status();
  result.cluster_seconds = phase.ElapsedSeconds();
  std::vector<std::vector<TupleId>>& clusters = partition->clusters;

  last_stats_ = ClusterStats();
  last_stats_.num_clusters = clusters.size();
  last_stats_.smallest_cluster = dataset.size();
  for (const std::vector<TupleId>& cluster : clusters) {
    last_stats_.largest_cluster =
        std::max(last_stats_.largest_cluster, cluster.size());
    last_stats_.smallest_cluster =
        std::min(last_stats_.smallest_cluster, cluster.size());
    if (cluster.empty()) ++last_stats_.empty_clusters;
  }
  // Surface severe key skew ("we must expect to compute very large
  // clusters and some empty clusters", §2.2.1): a hot cluster erodes both
  // the method's speed advantage and downstream load balance.
  const size_t average = dataset.size() / clusters.size();
  if (average > 0 && last_stats_.largest_cluster > 4 * average) {
    MERGEPURGE_LOG(kWarning)
        << "clustering key '" << key.name << "': largest cluster holds "
        << last_stats_.largest_cluster << " records (" << clusters.size()
        << " clusters, average " << average << ") — key prefix is skewed";
  }

  // --- Phase 2: sorted-neighborhood inside each cluster. ---
  const KeyOrder order_by_key{partition->sort_keys};
  WindowScanner scanner(options_.window);
  ScanStats pass_stats;
  {
    Span span("cluster-scan");
    for (std::vector<TupleId>& cluster : clusters) {
      if (cluster.size() < 2) continue;
      phase.Restart();
      std::sort(cluster.begin(), cluster.end(), order_by_key);
      result.sort_seconds += phase.ElapsedSeconds();

      phase.Restart();
      ScanStats stats =
          scanner.Scan(dataset, cluster, theory, &result.pairs);
      result.scan_seconds += phase.ElapsedSeconds();
      pass_stats += stats;
    }
    span.AddArg("clusters", static_cast<uint64_t>(clusters.size()));
    span.AddArg("comparisons", pass_stats.comparisons);
  }
  result.windows = pass_stats.windows;
  result.comparisons = pass_stats.comparisons;
  result.matches = pass_stats.matches;

  FlushScanStats(pass_stats);
  theory.FlushMetrics();
  passes_counter->Increment();
  sort_us->Record(result.sort_seconds * 1e6);
  scan_us->Record(result.scan_seconds * 1e6);

  result.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace mergepurge
