#include "core/sorted_neighborhood.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sort/external_sort.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mergepurge {

std::vector<TupleId> OrderByKeys(const std::vector<std::string>& keys,
                                 size_t threads) {
  const size_t n = keys.size();
  const size_t runs = std::max<size_t>(1, std::min(threads, n));
  std::vector<TupleId> order(n);
  std::iota(order.begin(), order.end(), 0);
  const KeyOrder less{keys};
  // Each run is sorted in place on its own thread (std::sort allocates
  // nothing); neighbouring runs are then merged on the calling thread.
  ParallelFor(n, runs, [&order, &less](size_t begin, size_t end) {
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(begin),
              order.begin() + static_cast<std::ptrdiff_t>(end), less);
  });
  auto run_start = [n, runs](size_t run) {
    return static_cast<std::ptrdiff_t>(n * std::min(run, runs) / runs);
  };
  for (size_t width = 1; width < runs; width *= 2) {
    for (size_t run = 0; run + width < runs; run += 2 * width) {
      std::inplace_merge(order.begin() + run_start(run),
                         order.begin() + run_start(run + width),
                         order.begin() + run_start(run + 2 * width), less);
    }
  }
  return order;
}

std::vector<TupleId> SortedNeighborhood::SortByKey(const Dataset& dataset,
                                                   const KeySpec& key) {
  return OrderByKeys(KeyBuilder(key).BuildKeys(dataset));
}

Result<std::vector<TupleId>> SortedNeighborhood::BuildOrder(
    const Dataset& dataset, const KeySpec& key, PassResult* timings,
    size_t threads) const {
  KeyBuilder builder(key);
  MERGEPURGE_RETURN_NOT_OK(builder.Validate(dataset.schema()));

  static LatencyHistogram* const sort_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmSortUs);

  Timer phase;
  std::vector<TupleId> order;
  if (options_.external_sort_memory > 0) {
    // I/O-bound regime: key creation is folded into run formation inside
    // the external sorter, so both phases are reported as sort time.
    Span span("external-sort");
    ExternalSortOptions sort_options;
    sort_options.memory_records = options_.external_sort_memory;
    sort_options.fan_in = options_.external_sort_fan_in;
    sort_options.temp_dir = options_.temp_dir;
    Result<std::vector<TupleId>> sorted =
        ExternalSorter(sort_options).Sort(dataset, key, nullptr);
    if (!sorted.ok()) return sorted.status();
    order = std::move(*sorted);
  } else {
    // Phase 1: create keys.
    std::vector<std::string> keys;
    {
      Span span("create-keys");
      keys = builder.BuildKeys(dataset);
    }
    timings->create_keys_seconds = phase.ElapsedSeconds();

    // Phase 2: sort.
    phase.Restart();
    Span span("sort");
    order = OrderByKeys(keys, threads);
  }
  timings->sort_seconds = phase.ElapsedSeconds();
  sort_us->Record(static_cast<double>(phase.ElapsedMicros()));
  return order;
}

Result<PassResult> SortedNeighborhood::Run(
    const Dataset& dataset, const KeySpec& key,
    const EquationalTheory& theory) const {
  if (options_.window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }

  static Counter* const passes_counter =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmPasses);
  static LatencyHistogram* const scan_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmScanUs);

  Span pass_span("snm-pass");
  pass_span.AddArg("key", key.name);

  PassResult result;
  result.key_name = key.name;
  Timer total;
  Result<std::vector<TupleId>> order = BuildOrder(dataset, key, &result);
  if (!order.ok()) return order.status();

  // Phase 3: window scan (merge).
  Timer phase;
  ScanStats stats;
  {
    Span span("window-scan");
    WindowScanner scanner(options_.window);
    stats = scanner.Scan(dataset, *order, theory, &result.pairs);
    span.AddArg("windows", stats.windows);
    span.AddArg("comparisons", stats.comparisons);
  }
  result.scan_seconds = phase.ElapsedSeconds();
  scan_us->Record(static_cast<double>(phase.ElapsedMicros()));

  FlushScanStats(stats);
  theory.FlushMetrics();
  passes_counter->Increment();

  result.windows = stats.windows;
  result.comparisons = stats.comparisons;
  result.matches = stats.matches;
  result.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace mergepurge
