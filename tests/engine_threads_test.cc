// MergePurgeEngine::Run on 1, 2, 4 and 8 threads: every result and every
// count equals the serial run's — for the hand-written theory, the
// compiled rule DSL, and a theory that cannot clone (which then scans on
// one worker), with records conditioned before Run or inside it. Each
// pass's window scan must really run on the requested number of workers.
// Also pins EquationalTheory::Clone: a clone keeps its original's options
// and its own counters.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/merge_purge.h"
#include "core/sorted_neighborhood.h"
#include "gen/generator.h"
#include "keys/standard_keys.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/employee_rules_text.h"
#include "rules/employee_theory.h"
#include "rules/rule_program.h"
#include "text/normalize.h"

namespace mergepurge {
namespace {

// Delegates to the built-in theory but cannot clone, like a caller's own
// theory with unsynchronized state.
class CountingTheory final : public EquationalTheory {
 public:
  bool Matches(const Record& a, const Record& b) const override {
    ++count_;
    return inner_.Matches(a, b);
  }
  std::string name() const override { return "counting"; }
  uint64_t comparison_count() const override { return count_; }
  void reset_comparison_count() override { count_ = 0; }
  void FlushMetrics() const override { inner_.FlushMetrics(); }

 private:
  EmployeeTheory inner_;
  mutable uint64_t count_ = 0;
};

struct Outcome {
  std::vector<uint64_t> comparisons;  // Per pass.
  std::vector<std::vector<std::pair<TupleId, TupleId>>> pairs;  // Per pass.
  uint64_t union_pair_count = 0;
  std::vector<uint32_t> labels;
  size_t num_entities = 0;
  // Workers of each pass's window scan, from its "window-scan" span.
  std::vector<std::string> scan_threads;
  // What the run added to the registry's snm.* and rules.* counters.
  std::map<std::string, uint64_t> counters;
};

// What the registry's snm.* and rules.* counters gained since `before`.
std::map<std::string, uint64_t> CounterGains(const MetricsSnapshot& before) {
  std::map<std::string, uint64_t> gains;
  for (const auto& [name, value] :
       MetricsRegistry::Global().Snapshot().counters) {
    if (name.rfind("snm.", 0) == 0 || name.rfind("rules.", 0) == 0) {
      gains[name] = value - before.counter(name);
    }
  }
  return gains;
}

// Runs the engine on `threads` threads. With `condition_records` false,
// `dataset` must be conditioned already.
Outcome RunEngine(const Dataset& dataset, const EquationalTheory& theory,
                  size_t threads, bool condition_records = false) {
  MergePurgeOptions options;
  options.keys = StandardThreeKeys();
  options.window = 10;
  options.condition_records = condition_records;
  options.threads = threads;
  TraceRecorder& trace = TraceRecorder::Global();
  trace.Clear();
  trace.Enable();
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  Result<MergePurgeResult> result = MergePurgeEngine(options).Run(dataset,
                                                                  theory);
  trace.Disable();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  Outcome outcome;
  if (!result.ok()) return outcome;
  outcome.counters = CounterGains(before);
  for (const TraceSpan& span : trace.Spans()) {
    if (span.name != "window-scan") continue;
    for (const auto& [key, value] : span.args) {
      if (key == "threads") outcome.scan_threads.push_back(value);
    }
  }
  for (const PassResult& pass : result->detail.passes) {
    outcome.comparisons.push_back(pass.comparisons);
    outcome.pairs.push_back(pass.pairs.ToSortedVector());
  }
  outcome.union_pair_count = result->detail.union_pair_count;
  outcome.labels = result->component_of;
  outcome.num_entities = result->num_entities;
  return outcome;
}

class EngineThreadsTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_records = 800;
    config.seed = GetParam();
    Result<GeneratedDatabase> db = DatabaseGenerator(config).Generate();
    ASSERT_TRUE(db.ok());
    raw_ = db->dataset;
    dataset_ = std::move(db->dataset);
    ConditionEmployeeDataset(&dataset_);
  }

  // The workers each of the three passes must scan on: `threads` for a
  // theory that clones, one for a theory that cannot.
  static std::vector<std::string> ScanThreads(size_t threads,
                                              bool clones) {
    return std::vector<std::string>(3, std::to_string(clones ? threads : 1));
  }

  // Runs `theory` on 1, 2, 4 and 8 threads and requires every outcome to
  // equal the serial one. That one in turn must make the comparisons of
  // the window-scan formula, and find the pairs and add the counts of
  // SortedNeighborhood::Run with `reference` (a theory that decides and
  // counts like `theory`).
  void ExpectSameOnAllThreadCounts(const EquationalTheory& theory,
                                   const EquationalTheory& reference) {
    const bool clones = theory.Clone() != nullptr;
    const Outcome serial = RunEngine(dataset_, theory, 1);
    ASSERT_EQ(serial.comparisons.size(), 3u);
    EXPECT_EQ(serial.scan_threads, ScanThreads(1, clones));
    ASSERT_GT(serial.counters.at("snm.comparisons"), 0u);
    const std::vector<KeySpec> keys = StandardThreeKeys();
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    for (size_t k = 0; k < keys.size(); ++k) {
      EXPECT_EQ(serial.comparisons[k], 9 * dataset_.size() - 45);
      Result<PassResult> pass =
          SortedNeighborhood(10).Run(dataset_, keys[k], reference);
      ASSERT_TRUE(pass.ok());
      EXPECT_EQ(serial.pairs[k], pass->pairs.ToSortedVector());
    }
    EXPECT_EQ(serial.counters, CounterGains(before));
    for (size_t threads : {2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const Outcome parallel = RunEngine(dataset_, theory, threads);
      EXPECT_EQ(parallel.scan_threads, ScanThreads(threads, clones));
      EXPECT_EQ(parallel.comparisons, serial.comparisons);
      EXPECT_EQ(parallel.pairs, serial.pairs);
      EXPECT_EQ(parallel.union_pair_count, serial.union_pair_count);
      EXPECT_EQ(parallel.labels, serial.labels);
      EXPECT_EQ(parallel.num_entities, serial.num_entities);
      EXPECT_EQ(parallel.counters, serial.counters);
    }
  }

  Dataset raw_;      // As generated.
  Dataset dataset_;  // Conditioned.
};

TEST_P(EngineThreadsTest, EmployeeTheory) {
  EmployeeTheory theory;
  ExpectSameOnAllThreadCounts(theory, EmployeeTheory());
  // The work ran on clones; the caller's theory was only read.
  EXPECT_EQ(theory.comparison_count(), 0u);
}

TEST_P(EngineThreadsTest, RuleProgram) {
  Result<RuleProgram> program =
      RuleProgram::Compile(EmployeeRulesText(), dataset_.schema());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ExpectSameOnAllThreadCounts(*program, RuleProgram(*program));
  EXPECT_EQ(program->comparison_count(), 0u);
}

TEST_P(EngineThreadsTest, TheoryThatCannotCloneRunsItself) {
  CountingTheory theory;
  ASSERT_EQ(theory.Clone(), nullptr);
  ExpectSameOnAllThreadCounts(theory, EmployeeTheory());
  // Four runs, each comparing every pass's pairs once on this instance.
  const uint64_t per_run = 3 * (9 * dataset_.size() - 45);
  EXPECT_EQ(theory.comparison_count(), 4 * per_run);
}

TEST_P(EngineThreadsTest, ConditioningInsideRun) {
  // Run conditions its copy of the records on `threads` threads too; the
  // result is the one of records conditioned serially beforehand.
  const Outcome preconditioned = RunEngine(dataset_, EmployeeTheory(), 1);
  for (size_t threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Outcome outcome = RunEngine(raw_, EmployeeTheory(), threads,
                                      /*condition_records=*/true);
    EXPECT_EQ(outcome.scan_threads, ScanThreads(threads, true));
    EXPECT_EQ(outcome.comparisons, preconditioned.comparisons);
    EXPECT_EQ(outcome.pairs, preconditioned.pairs);
    EXPECT_EQ(outcome.labels, preconditioned.labels);
    EXPECT_EQ(outcome.counters, preconditioned.counters);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineThreadsTest,
                         ::testing::Values(7u, 42u, 2024u));

// Pairs of a generated dataset that share a window under the last-name
// key, where the theory's rules are exercised hardest.
std::vector<std::pair<TupleId, TupleId>> WindowSample(const Dataset& d) {
  std::vector<TupleId> order =
      SortedNeighborhood::SortByKey(d, StandardThreeKeys()[0]);
  std::vector<std::pair<TupleId, TupleId>> sample;
  for (size_t i = 1; i < order.size(); ++i) {
    for (size_t j = i - std::min<size_t>(i, 4); j < i; ++j) {
      sample.emplace_back(order[j], order[i]);
    }
  }
  return sample;
}

Dataset SampleDataset() {
  GeneratorConfig config;
  config.num_records = 600;
  config.seed = 99;
  Result<GeneratedDatabase> db = DatabaseGenerator(config).Generate();
  EXPECT_TRUE(db.ok());
  ConditionEmployeeDataset(&db->dataset);
  return std::move(db->dataset);
}

TEST(TheoryCloneTest, EmployeeCloneKeepsOptionsAndOwnCounters) {
  // An ablation variant: every option away from its default.
  EmployeeTheoryOptions options;
  options.distance = EmployeeTheoryOptions::Distance::kEdit;
  options.name_threshold = 0.9;
  options.use_nicknames = false;
  options.phonetic_gate = true;
  options.strict_city = true;
  const EmployeeTheory original(options);
  const std::unique_ptr<EquationalTheory> clone = original.Clone();
  ASSERT_NE(clone, nullptr);
  const auto* employee_clone = dynamic_cast<const EmployeeTheory*>(clone.get());
  ASSERT_NE(employee_clone, nullptr);
  EXPECT_EQ(employee_clone->options().distance, options.distance);
  EXPECT_EQ(employee_clone->options().phonetic_gate, options.phonetic_gate);

  const Dataset d = SampleDataset();
  const EmployeeTheory defaults;
  size_t disagreements_with_defaults = 0;
  size_t matches = 0;
  const auto sample = WindowSample(d);
  for (const auto& [a, b] : sample) {
    const Record& ra = d.record(a);
    const Record& rb = d.record(b);
    EXPECT_EQ(employee_clone->MatchingRule(ra, rb),
              original.MatchingRule(ra, rb));
    const bool match = original.Matches(ra, rb);
    EXPECT_EQ(clone->Matches(ra, rb), match);
    matches += match;
    disagreements_with_defaults += defaults.Matches(ra, rb) != match;
  }
  // The sample is not vacuous: it has matches, and the options change
  // some decisions, so agreement shows they were copied.
  EXPECT_GT(matches, 0u);
  EXPECT_GT(disagreements_with_defaults, 0u);
  // Each instance counted its own calls (MatchingRule + Matches per pair).
  EXPECT_EQ(original.comparison_count(), 2 * sample.size());
  EXPECT_EQ(clone->comparison_count(), 2 * sample.size());
  clone->reset_comparison_count();
  EXPECT_EQ(clone->comparison_count(), 0u);
  EXPECT_EQ(original.comparison_count(), 2 * sample.size());
}

TEST(TheoryCloneTest, RuleProgramCloneAgreesAndCountsApart) {
  const Dataset d = SampleDataset();
  Result<RuleProgram> program =
      RuleProgram::Compile(EmployeeRulesText(), d.schema());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const std::unique_ptr<EquationalTheory> clone = program->Clone();
  ASSERT_NE(clone, nullptr);
  const auto sample = WindowSample(d);
  for (const auto& [a, b] : sample) {
    EXPECT_EQ(clone->Matches(d.record(a), d.record(b)),
              program->Matches(d.record(a), d.record(b)));
  }
  EXPECT_EQ(program->comparison_count(), sample.size());
  EXPECT_EQ(clone->comparison_count(), sample.size());
}

}  // namespace
}  // namespace mergepurge
