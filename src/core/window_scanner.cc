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

void ReportScanProgress(uint64_t windows) {
  ProgressReporter::Global().Advance(windows);
}

}  // namespace mergepurge
