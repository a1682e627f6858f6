// Scanner-level property tests for the figure-5 band invariant under the
// owned-range rule: scanning ANY set of owned ranges that tile the order,
// each from w-1 positions before its start, compares exactly the pairs of
// the global window scan, each once, and finds its pair set — for
// arbitrary (n, w, P) combinations, not just the executors' defaults.

#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "core/coordinator.h"
#include "core/window_scanner.h"
#include "gen/generator.h"
#include "rules/employee_theory.h"
#include "text/normalize.h"
#include "util/random.h"

namespace mergepurge {
namespace {

// Deterministic theory on tuple ids: matches when ids are congruent mod k.
// Exercises the scanner without string costs and with dense matches.
class ModTheory final : public EquationalTheory {
 public:
  explicit ModTheory(TupleId k) : k_(k) {}
  bool Matches(const Record& a, const Record& b) const override {
    ++count_;
    auto value = [](const Record& r) {
      return std::strtoul(std::string(r.field(0)).c_str(), nullptr, 10);
    };
    return value(a) % k_ == value(b) % k_;
  }
  std::string name() const override { return "mod"; }
  uint64_t comparison_count() const override { return count_; }
  void reset_comparison_count() override { count_ = 0; }

 private:
  TupleId k_;
  mutable uint64_t count_ = 0;
};

Dataset IdDataset(size_t n) {
  Dataset d(Schema({"id"}));
  for (size_t i = 0; i < n; ++i) d.Append(Record({std::to_string(i)}));
  return d;
}

using GridParam = std::tuple<size_t /*n*/, size_t /*w*/, size_t /*p*/>;

class BandInvariantTest : public ::testing::TestWithParam<GridParam> {};

TEST_P(BandInvariantTest, OwnedFragmentsReproduceGlobalScan) {
  auto [n, w, p] = GetParam();
  Dataset d = IdDataset(n);
  // Shuffled order so fragments cut through arbitrary neighborhoods.
  std::vector<TupleId> order(n);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(n * 31 + w * 7 + p);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }

  ModTheory theory(5);
  WindowScanner scanner(w);
  PairSet global;
  const uint64_t global_comparisons =
      scanner.Scan(d, order, theory, &global).comparisons;

  PairSet fragmented;
  uint64_t comparisons = 0;
  for (const Fragment& fragment : MakeOwnedFragments(n, p)) {
    comparisons += scanner
                       .ScanRange(d, order, fragment.begin, fragment.end,
                                  theory, &fragmented)
                       .comparisons;
  }
  EXPECT_EQ(comparisons, global_comparisons)
      << "n=" << n << " w=" << w << " p=" << p;
  EXPECT_EQ(fragmented.size(), global.size())
      << "n=" << n << " w=" << w << " p=" << p;
  global.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(fragmented.Contains(a, b));
  });
  // And nothing extra.
  fragmented.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(global.Contains(a, b));
  });
}

TEST_P(BandInvariantTest, BlockCyclicReproducesGlobalScan) {
  auto [n, w, p] = GetParam();
  Dataset d = IdDataset(n);
  std::vector<TupleId> order(n);
  std::iota(order.begin(), order.end(), 0);

  ModTheory theory(7);
  WindowScanner scanner(w);
  PairSet global;
  const uint64_t global_comparisons =
      scanner.Scan(d, order, theory, &global).comparisons;

  // Deliberately small blocks (clamped internally to 2*(w-1)).
  PairSet fragmented;
  uint64_t comparisons = 0;
  for (const auto& site : MakeBlockCyclicFragments(n, p, w + 3, w)) {
    for (const Fragment& block : site) {
      comparisons +=
          scanner
              .ScanRange(d, order, block.begin, block.end, theory,
                         &fragmented)
              .comparisons;
    }
  }
  EXPECT_EQ(comparisons, global_comparisons)
      << "n=" << n << " w=" << w << " p=" << p;
  EXPECT_EQ(fragmented.size(), global.size())
      << "n=" << n << " w=" << w << " p=" << p;
  global.ForEach([&](TupleId a, TupleId b) {
    EXPECT_TRUE(fragmented.Contains(a, b));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BandInvariantTest,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 50u, 173u),
                       ::testing::Values(2u, 3u, 8u),
                       ::testing::Values(1u, 2u, 5u, 16u)));

}  // namespace
}  // namespace mergepurge
