#include "core/window_scanner.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/progress.h"

namespace mergepurge {

void FlushScanStats(const ScanStats& stats) {
  static Counter* const windows =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmWindows);
  static Counter* const comparisons =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmComparisons);
  static Counter* const matches =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmMatches);
  windows->Add(stats.windows);
  comparisons->Add(stats.comparisons);
  matches->Add(stats.matches);
}

ScanStats WindowScanner::ScanRange(const Dataset& dataset,
                                   const std::vector<TupleId>& order,
                                   size_t begin, size_t end,
                                   const EquationalTheory& theory,
                                   PairSet* pairs) const {
  // Progress is reported per chunk of entering positions: each chunk is
  // scanned from window-1 positions before it, with only its own new.
  constexpr size_t kProgressChunk = 8192;
  ScanStats stats;
  for (size_t first = begin; window_ >= 2 && first < end;
       first += kProgressChunk) {
    const ScanStats chunk = ScanNew(
        order, first - std::min(first - begin, window_ - 1),
        std::min(end, first + kProgressChunk), theory,
        [&dataset](TupleId t) -> const Record& { return dataset.record(t); },
        [first](size_t pos) { return pos >= first; },
        [pairs](TupleId a, TupleId b) { pairs->Add(a, b); });
    ProgressReporter::Global().Advance(chunk.windows);
    stats += chunk;
  }
  return stats;
}

}  // namespace mergepurge
