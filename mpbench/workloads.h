// The benchmark's three workloads. Each generates its inputs from the
// run's seed, measures for the run's seconds, checks the program's
// outputs (throwing CheckFailure on a wrong one) and fills the report:
// end-to-end metrics when untraced, per-layer metrics when traced.
#ifndef MPBENCH_WORKLOADS_H_
#define MPBENCH_WORKLOADS_H_

#include "common.h"

namespace mpbench {

// In-process MergePurgeEngine::Run over ~50k generated records.
void RunBatchMultipass(const RunOptions& options, Report* report);

// One durable mergepurge_serve recovered from a ~100k-record snapshot,
// driven by a closed loop of upserts and match probes.
void RunOnlineResident(const RunOptions& options, Report* report);

// mergepurge_coord over two durable shards that start empty, same loop.
// Not gated by BENCHMARK.json (its match latency median is not steady
// enough); a traced online_resident run calls it for the shard layer.
void RunOnlineSharded(const RunOptions& options, Report* report);

}  // namespace mpbench

#endif  // MPBENCH_WORKLOADS_H_
