#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "text/edit_distance.h"
#include "text/nicknames.h"
#include "util/random.h"
#include "util/string_util.h"

namespace mergepurge {
namespace {

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", ""), 3);
  EXPECT_EQ(EditDistance("", "abc"), 3);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2);
  EXPECT_EQ(EditDistance("same", "same"), 0);
}

TEST(EditDistanceTest, TranspositionCostsTwoInLevenshtein) {
  EXPECT_EQ(EditDistance("ab", "ba"), 2);
}

TEST(DamerauTest, TranspositionCostsOne) {
  EXPECT_EQ(DamerauDistance("ab", "ba"), 1);
  EXPECT_EQ(DamerauDistance("SMITH", "SMIHT"), 1);
  EXPECT_EQ(DamerauDistance("193456782", "913456782"), 1);
}

TEST(DamerauTest, MatchesLevenshteinWithoutTranspositions) {
  EXPECT_EQ(DamerauDistance("kitten", "sitting"), 3);
  EXPECT_EQ(DamerauDistance("abc", ""), 3);
}

TEST(BoundedTest, ExactWithinBound) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 3), 3);
  EXPECT_EQ(BoundedDamerauDistance("ab", "ba", 1), 1);
}

TEST(BoundedTest, ExceedsBoundReturnsBoundPlusOne) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 2), 3);
  EXPECT_EQ(BoundedEditDistance("aaaa", "bbbb", 1), 2);
}

TEST(BoundedTest, LengthGapShortCircuits) {
  EXPECT_EQ(BoundedEditDistance("a", "abcdefg", 2), 3);
}

TEST(SimilarityTest, Range) {
  EXPECT_DOUBLE_EQ(StringSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(StringSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(StringSimilarity("abc", ""), 0.0);
  EXPECT_NEAR(StringSimilarity("MICHAEL", "MICHAL"), 1.0 - 1.0 / 7.0, 1e-9);
}

TEST(WithinDistanceTest, UsesDamerau) {
  EXPECT_TRUE(WithinDistance("ab", "ba", 1));
  EXPECT_FALSE(WithinDistance("abcd", "dcba", 1));
}

// Property tests over random string pairs.
class DistancePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

std::string RandomString(Rng* rng, int max_len) {
  int len = static_cast<int>(rng->NextBounded(max_len + 1));
  std::string s;
  for (int i = 0; i < len; ++i) {
    s += static_cast<char>('a' + rng->NextBounded(4));  // Small alphabet.
  }
  return s;
}

TEST_P(DistancePropertyTest, InvariantsHold) {
  auto [seed, max_len] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  for (int trial = 0; trial < 300; ++trial) {
    std::string a = RandomString(&rng, max_len);
    std::string b = RandomString(&rng, max_len);
    std::string c = RandomString(&rng, max_len);

    int lev = EditDistance(a, b);
    int dam = DamerauDistance(a, b);

    // Symmetry.
    EXPECT_EQ(lev, EditDistance(b, a));
    EXPECT_EQ(dam, DamerauDistance(b, a));
    // Identity of indiscernibles.
    EXPECT_EQ(lev == 0, a == b);
    EXPECT_EQ(dam == 0, a == b);
    // Damerau never exceeds Levenshtein; Levenshtein <= 2 * Damerau (OSA).
    EXPECT_LE(dam, lev);
    EXPECT_LE(lev, 2 * dam);
    // Length difference lower bound, max length upper bound.
    int len_gap = static_cast<int>(a.size()) - static_cast<int>(b.size());
    if (len_gap < 0) len_gap = -len_gap;
    EXPECT_GE(dam, len_gap);
    EXPECT_LE(lev, static_cast<int>(std::max(a.size(), b.size())));
    // Levenshtein triangle inequality.
    EXPECT_LE(EditDistance(a, c),
              EditDistance(a, b) + EditDistance(b, c));

    // Bounded versions agree with full versions for every bound.
    for (int bound = 0; bound <= max_len; ++bound) {
      int be = BoundedEditDistance(a, b, bound);
      int bd = BoundedDamerauDistance(a, b, bound);
      EXPECT_EQ(be, lev <= bound ? lev : bound + 1)
          << "a=" << a << " b=" << b << " bound=" << bound;
      EXPECT_EQ(bd, dam <= bound ? dam : bound + 1)
          << "a=" << a << " b=" << b << " bound=" << bound;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DistancePropertyTest,
    ::testing::Values(std::make_tuple(1, 6), std::make_tuple(2, 10),
                      std::make_tuple(3, 14), std::make_tuple(4, 3),
                      std::make_tuple(5, 20)));

// --- Differential tests against a textbook full-matrix DP. ---

struct Reference {
  int lev;
  int osa;
};

// Levenshtein and OSA Damerau over the full (|a|+1) x (|b|+1) matrix.
Reference ReferenceDistances(const std::string& a, const std::string& b) {
  const size_t n = a.size();
  const size_t m = b.size();
  // Reused across calls: the random test evaluates 200k pairs.
  static std::vector<std::vector<int>> lev, osa;
  if (lev.size() < n + 1) {
    lev.resize(n + 1);
    osa.resize(n + 1);
  }
  for (size_t i = 0; i <= n; ++i) {
    lev[i].resize(m + 1);
    osa[i].resize(m + 1);
    for (size_t j = 0; j <= m; ++j) {
      if (i == 0 || j == 0) {
        lev[i][j] = osa[i][j] = static_cast<int>(i + j);
        continue;
      }
      const int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      lev[i][j] = std::min(std::min(lev[i - 1][j], lev[i][j - 1]) + 1,
                           lev[i - 1][j - 1] + cost);
      int d = std::min(std::min(osa[i - 1][j], osa[i][j - 1]) + 1,
                       osa[i - 1][j - 1] + cost);
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        d = std::min(d, osa[i - 2][j - 2] + 1);
      }
      osa[i][j] = d;
    }
  }
  return {lev[n][m], osa[n][m]};
}

int Clamp(int exact, int bound) {
  return bound < 0 ? 0 : std::min(exact, bound + 1);
}

// Checks every kernel on (a, b) and (b, a); returns the number of
// mismatches so callers can stop reporting after the first few.
int CheckPair(const std::string& a, const std::string& b,
              const std::vector<int>& bounds) {
  const Reference ref = ReferenceDistances(a, b);
  const bool transposed = ref.osa == 1 && ref.lev == 2;
  int failures = 0;
  auto expect = [&](const char* what, int got, int want, int bound) {
    if (got == want) return;
    if (++failures <= 3) {
      ADD_FAILURE() << what << " a=\"" << a << "\" b=\"" << b
                    << "\" bound=" << bound << " got=" << got
                    << " want=" << want;
    }
  };
  // Past the 64-byte limit only the row DP runs; one order is enough there
  // and keeps the test fast.
  const int orders = std::min(a.size(), b.size()) <= 64 ? 2 : 1;
  for (int order = 0; order < orders; ++order) {
    const std::string& x = order == 0 ? a : b;
    const std::string& y = order == 0 ? b : a;
    expect("EditDistance", EditDistance(x, y), ref.lev, 0);
    expect("DamerauDistance", DamerauDistance(x, y), ref.osa, 0);
    expect("IsSingleTransposition", IsSingleTransposition(x, y),
           transposed, 0);
    for (int bound : bounds) {
      expect("BoundedEditDistance", BoundedEditDistance(x, y, bound),
             Clamp(ref.lev, bound), bound);
      expect("BoundedDamerauDistance", BoundedDamerauDistance(x, y, bound),
             Clamp(ref.osa, bound), bound);
    }
  }
  return failures;
}

TEST(DistanceDifferentialTest, ExhaustiveSmallAlphabet) {
  // Every string over {a,b,c} of length <= 6: 1,093 strings, 1.19M pairs.
  std::vector<std::string> strings = {""};
  for (size_t begin = 0; strings.back().size() < 6;) {
    const size_t end = strings.size();
    for (size_t i = begin; i < end; ++i) {
      for (char c : {'a', 'b', 'c'}) strings.push_back(strings[i] + c);
    }
    begin = end;
  }
  ASSERT_EQ(strings.size(), 1093u);
  const std::vector<int> bounds = {-1, 0, 1, 2, 3, 4};
  int failures = 0;
  for (size_t i = 0; i < strings.size() && failures < 10; ++i) {
    for (size_t j = i; j < strings.size(); ++j) {
      failures += CheckPair(strings[i], strings[j], bounds);
    }
  }
  EXPECT_EQ(failures, 0);
}

// Lengths on both sides of the 64-byte kernel limit, and anywhere else in
// 0..130 (less often past the limit, where only the DP fallback runs).
size_t RandomLength(Rng* rng) {
  static const size_t kEdges[] = {0, 1, 2, 63, 64, 65, 66};
  const double u = rng->NextDouble();
  if (u < 0.4) {
    return kEdges[rng->NextBounded(sizeof(kEdges) / sizeof(kEdges[0]))];
  }
  return static_cast<size_t>(rng->NextBounded(u < 0.9 ? 71 : 131));
}

// Bytes from a small alphabet (so distances stay low), or any byte,
// including 0x00 and 0x80..0xff.
char RandomByte(Rng* rng, bool any_byte) {
  static const char kSmall[] = {'a', 'b', 'Z', '\x80', '\xff'};
  if (any_byte) return static_cast<char>(rng->NextBounded(256));
  return kSmall[rng->NextBounded(sizeof(kSmall))];
}

// A copy of s with a few random edits, so that many pairs are close.
std::string Mutate(Rng* rng, std::string s, bool any_byte) {
  const int edits = static_cast<int>(rng->NextBounded(4));
  for (int e = 0; e < edits; ++e) {
    const size_t at = s.empty() ? 0 : rng->NextBounded(s.size());
    switch (rng->NextBounded(4)) {
      case 0:
        s.insert(at, 1, RandomByte(rng, any_byte));
        break;
      case 1:
        if (!s.empty()) s.erase(at, 1);
        break;
      case 2:
        if (!s.empty()) s[at] = RandomByte(rng, any_byte);
        break;
      default:
        if (at + 1 < s.size()) std::swap(s[at], s[at + 1]);
        break;
    }
  }
  if (s.size() > 130) s.resize(130);
  return s;
}

TEST(DistanceDifferentialTest, RandomPairsAcrossWordBoundary) {
  Rng rng(20261019);
  int failures = 0;
  for (int trial = 0; trial < 200000 && failures < 10; ++trial) {
    const bool any_byte = rng.NextBernoulli(0.25);
    std::string a(RandomLength(&rng), '\0');
    for (char& c : a) c = RandomByte(&rng, any_byte);
    std::string b;
    if (rng.NextBernoulli(0.5)) {
      b = Mutate(&rng, a, any_byte);
    } else {
      b.resize(RandomLength(&rng));
      for (char& c : b) c = RandomByte(&rng, any_byte);
    }
    const int gap = static_cast<int>(a.size() > b.size() ? a.size() - b.size()
                                                         : b.size() - a.size());
    const std::vector<int> bounds = {
        0, 2, gap, static_cast<int>(rng.NextBounded(141)) - 1};
    failures += CheckPair(a, b, bounds);
  }
  EXPECT_EQ(failures, 0);
}

TEST(IsSingleTranspositionTest, KnownValues) {
  EXPECT_TRUE(IsSingleTransposition("ab", "ba"));
  EXPECT_TRUE(IsSingleTransposition("SMITH", "SMIHT"));
  EXPECT_TRUE(IsSingleTransposition("193456782", "913456782"));
  EXPECT_FALSE(IsSingleTransposition("", ""));
  EXPECT_FALSE(IsSingleTransposition("abc", "abc"));
  EXPECT_FALSE(IsSingleTransposition("abc", "bca"));    // a rotation
  EXPECT_FALSE(IsSingleTransposition("abcd", "badc"));  // two swaps
  EXPECT_FALSE(IsSingleTransposition("abc", "acbx"));   // length differs
  EXPECT_FALSE(IsSingleTransposition("acb", "abd"));    // swap + change
}

TEST(NicknameTest, SameCanonicalNameMatchesCanonicalize) {
  const NicknameTable& table = NicknameTable::Default();
  const std::string long_name(70, 'r');
  const std::vector<std::string> names = {
      "", "Bob", "bOB", "ROBERT", "robert", "Roberto", "bill", "William",
      "Zed", "ZED", "zod", "O'Brien", "\xe9lise", "\xc9LISE", long_name,
      ToUpperAscii(long_name), long_name + "x", std::string(64, 'b'),
      std::string(65, 'B'), "Giuseppe", "joe", "Jo"};
  // The allocation-free path must agree with comparing Canonicalize().
  for (const std::string& a : names) {
    for (const std::string& b : names) {
      EXPECT_EQ(table.SameCanonicalName(a, b),
                table.Canonicalize(a) == table.Canonicalize(b))
          << "a=" << a << " b=" << b;
    }
  }
  EXPECT_TRUE(table.SameCanonicalName("bob", "Robert"));
  EXPECT_TRUE(table.SameCanonicalName("Zed", "zED"));
  EXPECT_FALSE(table.SameCanonicalName("Zed", "Zod"));
  EXPECT_TRUE(table.SameCanonicalName(long_name, ToUpperAscii(long_name)));
  EXPECT_FALSE(table.SameCanonicalName(long_name, "Robert"));
}

}  // namespace
}  // namespace mergepurge
