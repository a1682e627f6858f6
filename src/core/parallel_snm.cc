#include "core/parallel_snm.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/coordinator.h"
#include "core/window_scanner.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mergepurge {

namespace {

// Without a block size, a pass is cut into owned fragments of about this
// many positions, at least one per thread, dealt round-robin: a thread the
// host slows down then takes fewer of them, so a pass ends with the
// fastest threads, not the slowest (4 threads on a 4-vCPU host, 49,759
// records: the three scans' median fell from 0.32 s with one fragment per
// thread to 0.28 s).
constexpr size_t kFragmentPositions = 1024;

// What one pool thread scans with. Both are made on the calling thread,
// so the workers allocate nothing that outlives a task (glibc gives every
// thread its own arena, and memory a worker allocates stays in it).
struct Lane {
  std::unique_ptr<EquationalTheory> clone;  // Null: the caller's theory.
  // Matches of every fragment this thread scanned, in scan order.
  std::vector<std::pair<TupleId, TupleId>> matches;
};

// Where a committed fragment's matches sit: lanes[lane].matches[begin, end).
struct Segment {
  size_t lane = 0;
  size_t begin = 0;
  size_t end = 0;
};

}  // namespace

ParallelSnm::ParallelSnm(size_t threads, size_t window, size_t block_records,
                         ResilientOptions resilience)
    : threads_(ResolveThreadCount(threads)),
      window_(window),
      block_records_(block_records),
      resilience_(resilience) {}

Result<ParallelRunResult> ParallelSnm::Run(
    const Dataset& dataset, const KeySpec& key,
    const EquationalTheory& theory) const {
  if (window_ < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }

  static LatencyHistogram* const scan_us =
      MetricsRegistry::Global().GetHistogram(metric_names::kSnmScanUs);
  static Counter* const passes_counter =
      MetricsRegistry::Global().GetCounter(metric_names::kSnmPasses);

  Span run_span("snm-pass");
  run_span.AddArg("key", key.name);

  ParallelRunResult result;
  result.key_name = key.name;
  Timer total;
  Result<std::vector<TupleId>> sorted =
      SortedNeighborhood(window_).BuildOrder(dataset, key, &result, threads_);
  if (!sorted.ok()) return sorted.status();
  const std::vector<TupleId>& order = *sorted;

  // Merge phase. Owned fragments: blocks of about kFragmentPositions, or
  // the coordinator's block-cyclic deal. A fragment scan reads the shared
  // order and writes only its thread's lane until commit, so the runner
  // may re-execute it freely. A theory that cannot clone runs on one
  // worker.
  Timer phase;
  Span scan_span("window-scan");
  std::unique_ptr<EquationalTheory> first_clone = theory.Clone();
  const size_t threads = first_clone ? threads_ : 1;
  std::vector<Fragment> fragments;
  if (block_records_ > 0) {
    // In position order: the runner deals task i to worker i mod p, which
    // is the coordinator's round-robin deal of block i.
    for (const std::vector<Fragment>& site : MakeBlockCyclicFragments(
             order.size(), threads, block_records_, window_)) {
      fragments.insert(fragments.end(), site.begin(), site.end());
    }
    std::sort(fragments.begin(), fragments.end(),
              [](const Fragment& a, const Fragment& b) {
                return a.begin < b.begin;
              });
  } else {
    fragments = MakeOwnedFragments(
        order.size(),
        std::max(threads, (order.size() + kFragmentPositions - 1) /
                              kFragmentPositions));
  }

  // One lane per worker. Each reserves room for as many matches as the
  // pass has positions. That is no bound (a position may match each of
  // its w-1 predecessors, and then a lane grows on its worker), but a lane
  // scans only about 1/workers of the positions, and a pass of bench_snm's
  // 49,759 generated records matches 0.5-0.9 pairs per position.
  const size_t workers = std::max<size_t>(
      1, std::min(threads, fragments.size()));
  std::vector<Lane> lanes(workers);
  lanes[0].clone = std::move(first_clone);
  for (size_t t = 0; t < workers; ++t) {
    if (t > 0) lanes[t].clone = theory.Clone();
    lanes[t].matches.reserve(order.size());
  }
  scan_span.AddArg("threads", static_cast<uint64_t>(workers));

  std::vector<Segment> segments(fragments.size());
  ScanStats stats;
  result.worker_busy_seconds.assign(workers, 0.0);
  std::vector<ResilientTask> tasks;
  tasks.reserve(fragments.size());
  for (size_t f = 0; f < fragments.size(); ++f) {
    tasks.push_back([&, f](const AttemptContext& ctx) -> Status {
      MERGEPURGE_RETURN_NOT_OK(
          FaultInjector::Global().OnPoint(fault_points::kFragmentScan));
      Lane& lane = lanes[ctx.thread];
      const EquationalTheory& lane_theory = lane.clone ? *lane.clone : theory;
      const Fragment& fragment = fragments[f];
      Timer busy;
      Span span("fragment-scan");
      span.AddArg("begin", static_cast<uint64_t>(fragment.begin));
      span.AddArg("end", static_cast<uint64_t>(fragment.end));
      const size_t first = lane.matches.size();
      const ScanStats fragment_stats = WindowScanner(window_).ScanRange(
          dataset, order, fragment.begin, fragment.end, lane_theory,
          [&lane](TupleId a, TupleId b) { lane.matches.emplace_back(a, b); });
      const double busy_seconds = busy.ElapsedSeconds();
      // Metrics flush rides the commit, and progress follows it: an
      // attempt that loses the exactly-once race contributes to neither.
      const bool committed = ctx.Commit([&] {
        segments[f] = Segment{ctx.thread, first, lane.matches.size()};
        stats += fragment_stats;
        result.worker_busy_seconds[ctx.worker] += busy_seconds;
        FlushScanStats(fragment_stats);
        lane_theory.FlushMetrics();
      });
      if (committed) {
        ReportScanProgress(fragment_stats.windows);
      } else {
        // A speculative copy committed first. Drop this attempt's matches
        // and, with a fresh clone, its rule statistics. (A theory that
        // cannot clone has one worker, which never runs two attempts of a
        // task at once, so it never gets here.)
        lane.matches.resize(first);
        if (lane.clone) lane.clone = theory.Clone();
      }
      return Status::OK();
    });
  }

  ResilientOptions resilience = resilience_;
  resilience.num_workers = workers;
  ResilientReport report = ResilientRunner(resilience).Run(tasks);
  result.retries = report.retries;
  result.speculations = report.speculations;
  if (!report.status.ok()) return report.status;

  // Fragment order is position order, so the pairs are added exactly as
  // the serial scan adds them.
  for (const Segment& segment : segments) {
    const auto& matches = lanes[segment.lane].matches;
    for (size_t k = segment.begin; k < segment.end; ++k) {
      result.pairs.Add(matches[k].first, matches[k].second);
    }
  }
  scan_span.AddArg("windows", stats.windows);
  scan_span.AddArg("comparisons", stats.comparisons);
  result.windows = stats.windows;
  result.comparisons = stats.comparisons;
  result.matches = stats.matches;
  result.scan_seconds = phase.ElapsedSeconds();
  scan_us->Record(static_cast<double>(phase.ElapsedMicros()));
  passes_counter->Increment();
  result.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace mergepurge
