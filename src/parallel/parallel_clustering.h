// Parallel clustering method (paper §4.2): the coordinator range-partitions
// records into C clusters per processor via the key-prefix histogram,
// clusters are LPT load-balanced across workers, and each worker sorts and
// window-scans its clusters independently.

#ifndef MERGEPURGE_PARALLEL_PARALLEL_CLUSTERING_H_
#define MERGEPURGE_PARALLEL_PARALLEL_CLUSTERING_H_

#include <functional>
#include <memory>

#include "core/clustering_method.h"
#include "core/parallel_snm.h"
#include "parallel/load_balance.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"
#include "util/status.h"

namespace mergepurge {

// Each cluster scan gets its own theory instance (statistics counters are
// not synchronized); the factory provides them.
using TheoryFactory = std::function<std::unique_ptr<EquationalTheory>()>;

class ParallelClustering {
 public:
  // num_processors workers; options.num_clusters is interpreted as
  // clusters PER PROCESSOR (the paper used 100 clusters per processor).
  // `resilience` tunes retry/backoff/deadline behaviour for lost or slow
  // cluster scans (num_workers is overridden with num_processors).
  ParallelClustering(size_t num_processors, ClusteringOptions options,
                     ResilientOptions resilience = ResilientOptions());

  Result<ParallelRunResult> Run(const Dataset& dataset, const KeySpec& key,
                                const TheoryFactory& theory_factory) const;

  // Load-balance report of the most recent Run.
  const LoadBalanceResult& last_balance() const { return last_balance_; }

 private:
  size_t num_processors_;
  ClusteringOptions options_;
  ResilientOptions resilience_;
  mutable LoadBalanceResult last_balance_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_PARALLEL_PARALLEL_CLUSTERING_H_
