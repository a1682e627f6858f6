#include "core/sort_merge_detector.h"

#include <string>
#include <vector>

#include "util/timer.h"

namespace mergepurge {

namespace {

// One merge step: merges `left` and `right` (each in KeyOrder) into
// `out`, comparing each emitted record against the previous window-1
// emitted records that came from the other input run.
void MergeAndDetect(const Dataset& dataset,
                    const std::vector<std::string>& keys,
                    const std::vector<TupleId>& left,
                    const std::vector<TupleId>& right, size_t window,
                    const EquationalTheory& theory, PassResult* result,
                    std::vector<TupleId>* out) {
  out->clear();
  out->reserve(left.size() + right.size());
  // Ring buffer of the last window-1 emitted (tid, from_left) entries.
  std::vector<std::pair<TupleId, bool>> recent;
  recent.reserve(window > 0 ? window - 1 : 0);
  size_t ring_pos = 0;

  auto emit = [&](TupleId tid, bool from_left) {
    for (const auto& [other, other_from_left] : recent) {
      if (other_from_left == from_left) continue;  // Same-run: seen before.
      ++result->comparisons;
      if (theory.Matches(dataset.record(other), dataset.record(tid))) {
        ++result->matches;
        result->pairs.Add(other, tid);
      }
    }
    if (window >= 2) {
      if (recent.size() < window - 1) {
        recent.emplace_back(tid, from_left);
      } else {
        recent[ring_pos] = {tid, from_left};
        ring_pos = (ring_pos + 1) % (window - 1);
      }
    }
    out->push_back(tid);
  };

  const KeyOrder order_by_key{keys};
  size_t i = 0;
  size_t j = 0;
  while (i < left.size() && j < right.size()) {
    if (order_by_key(left[i], right[j])) {
      emit(left[i++], true);
    } else {
      emit(right[j++], false);
    }
  }
  while (i < left.size()) emit(left[i++], true);
  while (j < right.size()) emit(right[j++], false);
}

}  // namespace

Result<PassResult> SortMergeDetector::Run(
    const Dataset& dataset, const KeySpec& key,
    const EquationalTheory& theory) const {
  if (window_ < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  KeyBuilder builder(key);
  MERGEPURGE_RETURN_NOT_OK(builder.Validate(dataset.schema()));

  PassResult result;
  result.key_name = key.name + "+merge-detect";
  Timer total;

  Timer phase;
  std::vector<std::string> keys = builder.BuildKeys(dataset);
  result.create_keys_seconds = phase.ElapsedSeconds();

  // Bottom-up merge sort from singleton runs; detection happens inside
  // every merge, so there is no separate window-scan phase.
  phase.Restart();
  std::vector<std::vector<TupleId>> runs(dataset.size());
  for (size_t t = 0; t < dataset.size(); ++t) {
    runs[t] = {static_cast<TupleId>(t)};
  }
  std::vector<TupleId> merged;
  while (runs.size() > 1) {
    std::vector<std::vector<TupleId>> next;
    next.reserve((runs.size() + 1) / 2);
    for (size_t r = 0; r + 1 < runs.size(); r += 2) {
      MergeAndDetect(dataset, keys, runs[r], runs[r + 1], window_, theory,
                     &result, &merged);
      next.push_back(std::move(merged));
    }
    if (runs.size() % 2 == 1) next.push_back(std::move(runs.back()));
    runs = std::move(next);
  }
  result.sort_seconds = phase.ElapsedSeconds();
  result.scan_seconds = 0.0;  // Folded into the merge phases.
  result.total_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace mergepurge
