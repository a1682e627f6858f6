#include "core/merge_purge.h"

#include <unordered_map>

#include "gen/places_data.h"
#include "text/normalize.h"
#include "text/spell.h"
#include "util/thread_pool.h"

namespace mergepurge {

MergePurgeEngine::MergePurgeEngine(MergePurgeOptions options)
    : options_(std::move(options)) {}

Dataset MergePurgeResult::Purge(const Dataset& dataset) const {
  // Group tuples by component, preserving first-seen order of components.
  std::unordered_map<uint32_t, size_t> component_to_output;
  Dataset out(dataset.schema());
  std::vector<std::vector<TupleId>> groups;
  for (size_t t = 0; t < dataset.size() && t < component_of.size(); ++t) {
    uint32_t component = component_of[t];
    auto [it, inserted] =
        component_to_output.emplace(component, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(static_cast<TupleId>(t));
  }

  for (const std::vector<TupleId>& group : groups) {
    // Merge by completeness: for each field keep the longest non-empty
    // value seen in the class.
    Record merged = dataset.record(group[0]);
    for (size_t i = 1; i < group.size(); ++i) {
      const Record& r = dataset.record(group[i]);
      for (FieldId f = 0; f < dataset.schema().num_fields(); ++f) {
        if (r.field(f).size() > merged.field(f).size()) {
          merged.set_field(f, std::string(r.field(f)));
        }
      }
    }
    out.Append(std::move(merged));
  }
  return out;
}

Result<MergePurgeResult> MergePurgeEngine::Run(
    const Dataset& dataset, const EquationalTheory& theory) const {
  if (options_.keys.empty()) {
    return Status::InvalidArgument("MergePurgeOptions.keys is empty");
  }
  if (options_.window < 2) {
    return Status::InvalidArgument("window must be >= 2");
  }

  // Conditioning runs on a private copy so callers keep their raw data.
  const Dataset* input = &dataset;
  Dataset conditioned;
  if (options_.condition_records &&
      !(dataset.schema() == employee::MakeSchema())) {
    return Status::InvalidArgument(
        "condition_records=true requires the employee schema; "
        "pre-condition custom schemas and set condition_records=false");
  }
  if (options_.condition_records) {
    conditioned = dataset;
    ConditionEmployeeDataset(&conditioned,
                             ResolveThreadCount(options_.threads));
    if (options_.spell_correct_city) {
      static const SpellCorrector* corrector =
          new SpellCorrector(AllCityNames());
      for (size_t t = 0; t < conditioned.size(); ++t) {
        Record& r = conditioned.mutable_record(static_cast<TupleId>(t));
        r.set_field(employee::kCity,
                    corrector->Correct(r.field(employee::kCity)));
      }
    }
    input = &conditioned;
  }

  MultiPass multipass(options_.method, options_.window, options_.clustering,
                      options_.threads);
  Result<MultiPassResult> detail =
      multipass.Run(*input, options_.keys, theory, options_.checkpoint_dir);
  if (!detail.ok()) return detail.status();

  MergePurgeResult result;
  result.detail = std::move(*detail);
  result.component_of = result.detail.component_of;

  std::unordered_map<uint32_t, bool> seen;
  for (uint32_t component : result.component_of) seen.emplace(component, true);
  result.num_entities = seen.size();
  return result;
}

}  // namespace mergepurge
