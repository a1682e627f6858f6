// WindowScanner: the merge phase of the sorted-neighborhood method
// (paper §2.2, figure 1). "Move a fixed size window through the sequential
// list of records limiting the comparisons for matching records to those
// records in the window. If the size of the window is w records, then
// every new record entering the window is compared with the previous w-1
// records to find 'matching' records."
//
// The pair rule, stated once for every scan: over positions [begin, end)
// of a sorted order, pair (j, i) with begin <= j < i < end and i - j < w
// is compared iff position i or position j is NEW, once, as
// theory.Matches(record at j, record at i) — (earlier, later). A batch
// scan marks every position new (split into parts by the owned-range rule
// below); the incremental engine marks the arriving batch, and its probe
// marks only itself.
//
// The owned-range rule, which splits one scan into independent parts:
// a range [begin, end) of positions is scanned from w-1 positions before
// `begin`, with only its own positions new. The earlier positions are
// lookback only, so ranges that tile [0, n) compare every in-window pair
// exactly once between them — the pairs of the serial scan, no more.
// Progress chunks and parallel fragments both follow it.

#ifndef MERGEPURGE_CORE_WINDOW_SCANNER_H_
#define MERGEPURGE_CORE_WINDOW_SCANNER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pair_set.h"
#include "record/dataset.h"
#include "rules/equational_theory.h"

namespace mergepurge {

struct ScanStats {
  uint64_t windows = 0;  // Positions compared with at least one earlier one.
  uint64_t comparisons = 0;
  uint64_t matches = 0;

  ScanStats& operator+=(const ScanStats& other) {
    windows += other.windows;
    comparisons += other.comparisons;
    matches += other.matches;
    return *this;
  }
};

// Adds `stats` to the global snm.* counters. Call once per completed
// scan (serial) or inside the task commit (parallel) so speculative or
// retried executions are counted exactly once per committed unit of
// work. Kept out of the scan loop: the loop accumulates plain locals.
void FlushScanStats(const ScanStats& stats);

// Advances the live progress display by `windows` scanned positions.
void ReportScanProgress(uint64_t windows);

class WindowScanner {
 public:
  // window must be >= 2 (a window of 1 compares nothing).
  explicit WindowScanner(size_t window) : window_(window) {}

  size_t window() const { return window_; }

  // Scans `order` (tuple ids in sorted sequence) over `dataset` with every
  // position new, applying `theory` to each in-window pair; matching pairs
  // are added to `pairs`. The scan runs as owned ranges of 8192 positions,
  // and reports each one's progress when it is done.
  ScanStats Scan(const Dataset& dataset, const std::vector<TupleId>& order,
                 const EquationalTheory& theory, PairSet* pairs) const {
    constexpr size_t kProgressChunk = 8192;
    ScanStats stats;
    for (size_t first = 0; first < order.size(); first += kProgressChunk) {
      const ScanStats chunk =
          ScanRange(dataset, order, first,
                    std::min(order.size(), first + kProgressChunk), theory,
                    pairs);
      ReportScanProgress(chunk.windows);
      stats += chunk;
    }
    return stats;
  }

  // Scans the owned range [begin, end) of `order` by the owned-range rule
  // above, passing each matching pair to `on_match(earlier, later)`.
  // Reports no progress: a parallel caller reports a range once it counts.
  template <typename OnMatch>
  ScanStats ScanRange(const Dataset& dataset,
                      const std::vector<TupleId>& order, size_t begin,
                      size_t end, const EquationalTheory& theory,
                      const OnMatch& on_match) const {
    if (window_ < 2 || begin >= end) return ScanStats();
    return ScanNew(
        order, begin - std::min(begin, window_ - 1), end, theory,
        [&dataset](TupleId t) -> const Record& { return dataset.record(t); },
        [begin](size_t pos) { return pos >= begin; }, on_match);
  }

  // The same, adding matching pairs to `pairs`.
  ScanStats ScanRange(const Dataset& dataset,
                      const std::vector<TupleId>& order, size_t begin,
                      size_t end, const EquationalTheory& theory,
                      PairSet* pairs) const {
    return ScanRange(dataset, order, begin, end, theory,
                     [pairs](TupleId a, TupleId b) { pairs->Add(a, b); });
  }

  // The one window loop: applies the pair rule above to positions
  // [begin, end) of `order`, with `record_of(tid)` giving each record,
  // `is_new(pos)` marking new positions (asked once per position) and
  // `on_match(earlier_tid, later_tid)` taking each matching pair.
  template <typename RecordOf, typename IsNew, typename OnMatch>
  ScanStats ScanNew(const std::vector<TupleId>& order, size_t begin,
                    size_t end, const EquationalTheory& theory,
                    const RecordOf& record_of, const IsNew& is_new,
                    const OnMatch& on_match) const {
    ScanStats stats;
    if (window_ < 2) return stats;
    // New positions so far; those from `oldest` on are in the window.
    std::vector<size_t> fresh;
    size_t oldest = 0;
    for (size_t i = begin; i < end; ++i) {
      const bool entering_new = is_new(i);
      // A new position is compared with its whole window, any other one
      // only with the window's new positions (if it has any).
      if (!entering_new && (fresh.empty() || i - fresh.back() >= window_)) {
        continue;
      }
      const size_t lo = i - std::min(i - begin, window_ - 1);
      while (oldest < fresh.size() && fresh[oldest] < lo) ++oldest;
      const size_t count = entering_new ? i - lo : fresh.size() - oldest;
      if (entering_new) fresh.push_back(i);
      if (count == 0) continue;
      ++stats.windows;
      const auto& later = record_of(order[i]);
      for (size_t k = 0; k < count; ++k) {
        const size_t j = entering_new ? lo + k : fresh[oldest + k];
        ++stats.comparisons;
        if (theory.Matches(record_of(order[j]), later)) {
          ++stats.matches;
          on_match(order[j], order[i]);
        }
      }
    }
    return stats;
  }

 private:
  size_t window_;
};

}  // namespace mergepurge

#endif  // MERGEPURGE_CORE_WINDOW_SCANNER_H_
