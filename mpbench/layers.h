// Per-layer measurements: each function times calls into one layer's
// public API from outside, records a LayerSpan per call, and writes the
// layer's metrics into the report. Used by the traced runs; the batch
// pass composition doubles as the serial reference of batch_multipass.
#ifndef MPBENCH_LAYERS_H_
#define MPBENCH_LAYERS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common.h"
#include "core/pair_set.h"
#include "record/dataset.h"

namespace mpbench {

using TuplePair = std::pair<mergepurge::TupleId, mergepurge::TupleId>;

// Conditions a copy of `raw` (ConditionEmployeeDataset); with `report`,
// records text.condition_us_per_record.
mergepurge::Dataset ConditionedCopy(const mergepurge::Dataset& raw,
                                    Report* report);

// One serial multi-pass run composed from the layer APIs: per key
// KeyBuilder::BuildKeys, SortedNeighborhood::SortByKey and
// WindowScanner::Scan, then TransitiveClosure over the passes' pairs.
struct LayeredPasses {
  std::vector<std::vector<mergepurge::TupleId>> orders;  // Per key.
  mergepurge::PairSet pairs;                             // Union of passes.
  std::vector<uint32_t> labels;                          // Closure labels.
  uint64_t comparisons = 0;
  size_t entities = 0;
};
// `parallel` runs the key passes on one thread each and records nothing
// (reference use); otherwise passes run serially and, with `report`, the
// keys/sort/core/parallel metrics are written.
LayeredPasses RunLayeredPasses(const mergepurge::Dataset& conditioned,
                               bool parallel, Report* report);

// The pairs WindowScanner compares over `order` for window `window`,
// every `stride`-th one, in scan order.
std::vector<TuplePair> WindowPairs(
    const std::vector<mergepurge::TupleId>& order, size_t window,
    size_t stride);

// Replays EmployeeTheory::Matches over `pairs` and the RuleProgram
// compiled from EmployeeRulesText() over every `dsl_stride`-th of them
// (the interpreter is ~4x slower): rules.* metrics, and the exact counts
// rules.distance_calls and rules.dsl_disagreements, which it returns.
struct RuleCounts {
  uint64_t distance_calls = 0;
  uint64_t dsl_disagreements = 0;
};
RuleCounts MeasureRules(const mergepurge::Dataset& conditioned,
                        const std::vector<TuplePair>& pairs,
                        size_t dsl_stride, Report* report);

// Restores an IncrementalMergePurge from (conditioned, pairs), applies
// `batches` of kUpsertRecords stream records with AddBatch, reads labels
// after each, and probes with MatchOnly: core.restore_s, core.apply_*,
// core.label_rebuild_us, core.probe_us.
void MeasureOnlineCore(const mergepurge::Dataset& conditioned,
                       const mergepurge::PairSet& pairs,
                       const mergepurge::Dataset& stream, size_t batches,
                       const mergepurge::Dataset& probes, Report* report);

// SaveSnapshot of (conditioned, pairs) under `dir`: service.snapshot_ms.
// ParseRequest plus response encoding over requests built from `stream`
// and `probes` in the workload's mix: service.protocol_us_per_request.
void MeasureServiceCalls(const mergepurge::Dataset& conditioned,
                         const mergepurge::PairSet& pairs,
                         const mergepurge::Dataset& stream,
                         const mergepurge::Dataset& probes,
                         const std::string& dir, Report* report);

// ShardRouter::Build over `sample`, then DestinationsOf for every stream
// record: shard.route_us_per_record.
void MeasureRouting(const mergepurge::Dataset& sample,
                    const mergepurge::Dataset& stream, size_t shards,
                    Report* report);

}  // namespace mpbench

#endif  // MPBENCH_LAYERS_H_
