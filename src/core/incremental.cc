#include "core/incremental.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/window_scanner.h"
#include "text/normalize.h"

namespace mergepurge {

IncrementalMergePurge::IncrementalMergePurge(MergePurgeOptions options)
    : options_(std::move(options)) {
  for (const KeySpec& spec : options_.keys) {
    KeyState state;
    state.spec = spec;
    key_states_.push_back(std::move(state));
  }
}

Result<uint64_t> IncrementalMergePurge::AddBatch(
    const Dataset& batch, const EquationalTheory& theory) {
  if (options_.keys.empty()) {
    return Status::InvalidArgument("no keys configured");
  }
  if (options_.window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  if (!all_.empty() && !(all_.schema() == batch.schema())) {
    return Status::InvalidArgument("batch schema differs from previous");
  }
  if (options_.condition_records &&
      !(batch.schema() == employee::MakeSchema())) {
    return Status::InvalidArgument(
        "condition_records=true requires the employee schema");
  }

  // Any admitted record changes the partition (at minimum it adds a
  // singleton): drop the label cache, and keep holding labels_mu_ for the
  // rest of the batch so the closure_ mutations below (Grow, the scan's
  // Unions) are covered by the same lock readers take to rebuild the
  // cache. AddBatch callers are single-writer, so the long hold contends
  // with nothing in correct use; it exists to make incorrect use (a
  // reader racing a batch) crash into the lock instead of the parent
  // array.
  MutexLock labels_lock(labels_mu_);
  labels_valid_ = false;

  // Condition a private copy of the batch, then append to the store.
  Dataset conditioned;
  const Dataset* incoming = &batch;
  if (options_.condition_records) {
    conditioned = batch;
    ConditionEmployeeDataset(&conditioned);
    incoming = &conditioned;
  }
  const TupleId first_new = static_cast<TupleId>(all_.size());
  if (all_.empty()) all_ = Dataset(batch.schema());
  for (const Record& r : incoming->records()) all_.Append(r);
  closure_.Grow(all_.size());

  const auto record_of = [this](TupleId t) -> const Record& {
    return all_.record(t);
  };
  uint64_t new_pairs = 0;

  for (KeyState& state : key_states_) {
    KeyBuilder builder(state.spec);
    MERGEPURGE_RETURN_NOT_OK(builder.Validate(all_.schema()));

    // Key + sort the new tuple ids, then merge them into the order.
    state.keys.resize(all_.size());
    std::vector<TupleId> fresh(all_.size() - first_new);
    std::iota(fresh.begin(), fresh.end(), first_new);
    for (TupleId t : fresh) state.keys[t] = builder.BuildKey(all_.record(t));
    const KeyOrder order_by_key{state.keys};
    std::sort(fresh.begin(), fresh.end(), order_by_key);
    std::vector<TupleId> merged(state.order.size() + fresh.size());
    std::merge(state.order.begin(), state.order.end(), fresh.begin(),
               fresh.end(), merged.begin(), order_by_key);

    // The batch's records are the new positions. closure_ is updated out
    // here, where the held labels_mu_ is visible, not in the callback.
    std::vector<std::pair<TupleId, TupleId>> found;
    WindowScanner(options_.window)
        .ScanNew(
            merged, 0, merged.size(), theory, record_of,
            [&](size_t pos) { return merged[pos] >= first_new; },
            [&found](TupleId a, TupleId b) { found.emplace_back(a, b); });
    for (const auto& [a, b] : found) {
      if (pairs_.Add(a, b)) ++new_pairs;
      closure_.Union(a, b);
    }
    state.order = std::move(merged);
  }
  return new_pairs;
}

Status IncrementalMergePurge::Restore(Dataset records, PairSet pairs) {
  if (options_.keys.empty()) {
    return Status::InvalidArgument("no keys configured");
  }
  if (!all_.empty()) {
    return Status::InvalidArgument("Restore requires an empty engine");
  }
  MutexLock labels_lock(labels_mu_);
  labels_valid_ = false;
  all_ = std::move(records);
  pairs_ = std::move(pairs);
  closure_.Grow(all_.size());
  // Deterministic order is not needed for correctness (union-find labels
  // are canonical regardless of union order) but keeps recovery runs
  // reproducible; this is a startup-only path, so the materialized copy
  // is fine.
  for (const auto& [lo, hi] : pairs_.ToSortedVector()) {
    closure_.Union(lo, hi);
  }

  for (KeyState& state : key_states_) {
    KeyBuilder builder(state.spec);
    MERGEPURGE_RETURN_NOT_OK(builder.Validate(all_.schema()));
    state.keys = builder.BuildKeys(all_);
    state.order = OrderByKeys(state.keys);
  }
  return Status::OK();
}

Result<ProbeResult> IncrementalMergePurge::MatchOnly(
    const Record& record, const EquationalTheory& theory) const {
  if (options_.keys.empty()) {
    return Status::InvalidArgument("no keys configured");
  }
  if (options_.window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }
  ProbeResult result;
  if (all_.empty()) return result;

  Record probe = record;
  if (options_.condition_records) ConditionEmployeeRecord(&probe);

  // The probe's would-be tuple id stands for it: the only new position.
  const TupleId probe_id = static_cast<TupleId>(all_.size());
  const auto record_of = [&](TupleId t) -> const Record& {
    return t == probe_id ? probe : all_.record(t);
  };
  const size_t span = options_.window - 1;
  std::vector<TupleId> near;
  for (const KeyState& state : key_states_) {
    KeyBuilder builder(state.spec);
    MERGEPURGE_RETURN_NOT_OK(builder.Validate(all_.schema()));
    const std::string probe_key = builder.BuildKey(probe);
    // With the largest tuple id, the probe sorts after every record with
    // an equal key (KeyOrder): before the first entry with a greater key.
    const size_t p = static_cast<size_t>(
        std::upper_bound(state.order.begin(), state.order.end(), probe_key,
                         [&state](const std::string& key, TupleId t) {
                           return key < state.keys[t];
                         }) -
        state.order.begin());
    // The w-1 records on either side, less those matched under an earlier
    // key (the rest stay in the window). result.matches holds at most
    // keys * 2(w-1) ids, so the search is bounded by the window.
    near.assign(state.order.begin() + (p >= span ? p - span : 0),
                state.order.begin() + std::min(state.order.size(), p + span));
    near.insert(near.begin() + std::min(p, span), probe_id);
    std::erase_if(near, [&result](TupleId t) {
      return std::find(result.matches.begin(), result.matches.end(), t) !=
             result.matches.end();
    });
    WindowScanner(options_.window)
        .ScanNew(
            near, 0, near.size(), theory, record_of,
            [&](size_t at) { return near[at] == probe_id; },
            [&](TupleId a, TupleId b) {
              result.matches.push_back(a == probe_id ? b : a);
            });
  }
  std::sort(result.matches.begin(), result.matches.end());
  return result;
}

const std::vector<uint32_t>& IncrementalMergePurge::CachedComponentLabels()
    const {
  MutexLock lock(labels_mu_);
  if (!labels_valid_) {
    labels_cache_ = closure_.ComponentLabels();
    labels_valid_ = true;
  }
  return labels_cache_;
}

std::vector<uint32_t> IncrementalMergePurge::ComponentLabels() const {
  return CachedComponentLabels();
}

Dataset IncrementalMergePurge::Purge() const {
  MergePurgeResult result;
  result.component_of = ComponentLabels();
  return result.Purge(all_);
}

}  // namespace mergepurge
