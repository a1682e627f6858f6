// IncrementalMergePurge: batch-at-a-time operation. Key property: after
// any batch sequence the incremental pair set contains every pair a
// from-scratch multi-pass run over the full concatenation would find.

#include <algorithm>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "core/multipass.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"

namespace mergepurge {
namespace {

// Splits a generated database into `parts` batches.
std::vector<Dataset> SplitBatches(const Dataset& all, size_t parts) {
  std::vector<Dataset> batches(parts, Dataset(all.schema()));
  size_t per_batch = (all.size() + parts - 1) / parts;
  for (size_t t = 0; t < all.size(); ++t) {
    batches[std::min(t / per_batch, parts - 1)].Append(
        all.record(static_cast<TupleId>(t)));
  }
  return batches;
}

class IncrementalTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_records = 1000;
    config.duplicate_selection_rate = 0.5;
    config.max_duplicates_per_record = 4;
    config.seed = 777;
    auto db = DatabaseGenerator(config).Generate();
    ASSERT_TRUE(db.ok());
    raw_ = std::move(db->dataset);
    truth_ = std::move(db->truth);
  }

  MergePurgeOptions Options() const {
    MergePurgeOptions options;
    options.keys = StandardThreeKeys();
    options.window = 8;
    return options;
  }

  Dataset raw_;
  GroundTruth truth_;
  EmployeeTheory theory_;
};

TEST_P(IncrementalTest, SupersetOfFromScratchRun) {
  const size_t num_batches = GetParam();
  IncrementalMergePurge incremental(Options());
  for (const Dataset& batch : SplitBatches(raw_, num_batches)) {
    auto added = incremental.AddBatch(batch, theory_);
    ASSERT_TRUE(added.ok()) << added.status().ToString();
  }
  ASSERT_EQ(incremental.size(), raw_.size());

  // From-scratch reference over the identical (conditioned) data.
  Dataset conditioned = raw_;
  ConditionEmployeeDataset(&conditioned);
  MultiPass mp(MultiPass::Method::kSortedNeighborhood, 8);
  auto reference = mp.Run(conditioned, StandardThreeKeys(), theory_);
  ASSERT_TRUE(reference.ok());

  PairSet reference_pairs;
  for (const PassResult& pass : reference->passes) {
    reference_pairs.Merge(pass.pairs);
  }
  reference_pairs.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(incremental.pairs().Contains(a, b))
        << "from-scratch pair (" << a << "," << b
        << ") missing incrementally";
  });
  EXPECT_GE(incremental.pairs().size(), reference_pairs.size());
}

TEST_P(IncrementalTest, AccuracyAtLeastFromScratch) {
  const size_t num_batches = GetParam();
  IncrementalMergePurge incremental(Options());
  for (const Dataset& batch : SplitBatches(raw_, num_batches)) {
    ASSERT_TRUE(incremental.AddBatch(batch, theory_).ok());
  }
  AccuracyReport inc_report =
      EvaluateComponents(incremental.ComponentLabels(), truth_);

  Dataset conditioned = raw_;
  ConditionEmployeeDataset(&conditioned);
  MultiPass mp(MultiPass::Method::kSortedNeighborhood, 8);
  auto reference = mp.Run(conditioned, StandardThreeKeys(), theory_);
  ASSERT_TRUE(reference.ok());
  AccuracyReport ref_report =
      EvaluateComponents(reference->component_of, truth_);

  EXPECT_GE(inc_report.recall_percent, ref_report.recall_percent - 1e-9);
}

TEST_P(IncrementalTest, SingleBatchEqualsFromScratchExactly) {
  if (GetParam() != 1) GTEST_SKIP();
  IncrementalMergePurge incremental(Options());
  ASSERT_TRUE(incremental.AddBatch(raw_, theory_).ok());

  Dataset conditioned = raw_;
  ConditionEmployeeDataset(&conditioned);
  MultiPass mp(MultiPass::Method::kSortedNeighborhood, 8);
  auto reference = mp.Run(conditioned, StandardThreeKeys(), theory_);
  ASSERT_TRUE(reference.ok());
  PairSet reference_pairs;
  for (const PassResult& pass : reference->passes) {
    reference_pairs.Merge(pass.pairs);
  }
  EXPECT_EQ(incremental.pairs().size(), reference_pairs.size());
}

INSTANTIATE_TEST_SUITE_P(Batches, IncrementalTest,
                         ::testing::Values(1, 2, 5, 10));

TEST(IncrementalEdgeTest, ValidatesOptionsAndSchemas) {
  MergePurgeOptions no_keys;
  IncrementalMergePurge bad(no_keys);
  Dataset d(employee::MakeSchema());
  EmployeeTheory theory;
  EXPECT_FALSE(bad.AddBatch(d, theory).ok());

  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = 1;
  IncrementalMergePurge tiny(options);
  EXPECT_FALSE(tiny.AddBatch(d, theory).ok());

  options.window = 8;
  options.condition_records = true;
  IncrementalMergePurge wrong_schema(options);
  Dataset other(Schema({"x"}));
  other.Append(Record({"1"}));
  EXPECT_FALSE(wrong_schema.AddBatch(other, theory).ok());
}

TEST(IncrementalEdgeTest, EntitiesAndPurgeEvolve) {
  GeneratorConfig config;
  config.num_records = 200;
  config.duplicate_selection_rate = 0.8;
  config.seed = 31;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());

  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = 8;
  IncrementalMergePurge incremental(options);
  EmployeeTheory theory;

  auto batches = SplitBatches(db->dataset, 3);
  size_t last_size = 0;
  for (const Dataset& batch : batches) {
    auto added = incremental.AddBatch(batch, theory);
    ASSERT_TRUE(added.ok());
    EXPECT_GE(incremental.size(), last_size);
    last_size = incremental.size();
    EXPECT_LE(incremental.NumEntities(), incremental.size());
  }
  Dataset purged = incremental.Purge();
  EXPECT_EQ(purged.size(), incremental.NumEntities());
  EXPECT_LT(purged.size(), incremental.size());
}

TEST(IncrementalEdgeTest, NewPairCountAccumulates) {
  GeneratorConfig config;
  config.num_records = 300;
  config.duplicate_selection_rate = 0.8;
  config.seed = 77;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());

  MergePurgeOptions options;
  options.keys = {LastNameKey()};
  options.window = 6;
  IncrementalMergePurge incremental(options);
  EmployeeTheory theory;

  uint64_t total_new = 0;
  for (const Dataset& batch : SplitBatches(db->dataset, 4)) {
    auto added = incremental.AddBatch(batch, theory);
    ASSERT_TRUE(added.ok());
    total_new += *added;
  }
  EXPECT_EQ(total_new, incremental.pairs().size());
}

// MatchOnly's documented contract: the probe returns exactly the
// old-record side of the pairs AddBatch would discover for a singleton
// batch of the same record.
TEST(IncrementalEdgeTest, ProbeEqualsSingletonBatchPartners) {
  GeneratorConfig config;
  config.num_records = 2000;
  config.seed = 99;
  auto db = DatabaseGenerator(config).Generate();
  ASSERT_TRUE(db.ok());
  constexpr size_t kProbes = 300;
  ASSERT_GT(db->dataset.size(), 4 * kProbes);
  const size_t stored = db->dataset.size() - kProbes;

  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = 10;
  IncrementalMergePurge engine(options);
  EmployeeTheory theory;
  Dataset stream(db->dataset.schema());
  for (size_t t = 0; t < stored; ++t) {
    stream.Append(db->dataset.record(static_cast<TupleId>(t)));
  }
  for (const Dataset& batch : SplitBatches(stream, 4)) {
    ASSERT_TRUE(engine.AddBatch(batch, theory).ok());
  }

  const TupleId probe_id = static_cast<TupleId>(engine.size());
  size_t probes_with_matches = 0;
  for (size_t t = stored; t < db->dataset.size(); ++t) {
    const Record& record = db->dataset.record(static_cast<TupleId>(t));
    Result<ProbeResult> probe = engine.MatchOnly(record, theory);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();

    IncrementalMergePurge admitted(options);
    ASSERT_TRUE(admitted.Restore(engine.records(), engine.pairs()).ok());
    Dataset single(db->dataset.schema());
    single.Append(record);
    ASSERT_TRUE(admitted.AddBatch(single, theory).ok());
    std::vector<TupleId> partners;
    admitted.pairs().ForEach([&](TupleId a, TupleId b) {
      if (b == probe_id) partners.push_back(a);
    });
    std::sort(partners.begin(), partners.end());

    EXPECT_EQ(probe->matches, partners) << "held-back record " << t;
    if (!partners.empty()) ++probes_with_matches;
  }
  // The stream holds duplicates of many held-back records.
  EXPECT_GT(probes_with_matches, kProbes / 2);
}

}  // namespace
}  // namespace mergepurge
