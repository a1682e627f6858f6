#include "text/edit_distance.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mergepurge {

namespace {

inline int Min3(int a, int b, int c) { return std::min(a, std::min(b, c)); }

// Longest pattern the bit-parallel kernel holds: one bit per byte.
constexpr size_t kWordBits = 64;

// Exact distance for 1 <= |pattern| <= 64 and any text, one word step per
// text byte: Myers (JACM 1999) for Levenshtein, plus Hyyro's (2003)
// transposition term for OSA Damerau. Bit i describes DP row i+1 of the
// current column: vp/vn are its +1/-1 vertical deltas and d0 marks the
// cells whose diagonal delta is zero. Bits above the pattern only ever
// receive carries and left shifts from below, so they never reach the
// bit that is read.
template <bool kTranspositions>
int BitParallelDistance(std::string_view pattern, std::string_view text) {
  // peq[c] has bit i set when pattern[i] == c. Only bytes occurring in
  // either string are ever read, so only those entries are cleared.
  uint64_t peq[256];
  for (unsigned char c : text) peq[c] = 0;
  for (unsigned char c : pattern) peq[c] = 0;
  for (size_t i = 0; i < pattern.size(); ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= uint64_t{1} << i;
  }

  const uint64_t last = uint64_t{1} << (pattern.size() - 1);
  uint64_t vp = ~uint64_t{0};
  uint64_t vn = 0;
  uint64_t d0 = 0;
  uint64_t prev_eq = 0;
  int score = static_cast<int>(pattern.size());
  for (unsigned char c : text) {
    const uint64_t eq = peq[c];
    uint64_t tr = 0;
    if constexpr (kTranspositions) {
      // pattern[i] == previous text byte, pattern[i-1] == this byte, and
      // the diagonal delta one row up in the previous column was not zero.
      tr = ((~d0 & eq) << 1) & prev_eq;
      prev_eq = eq;
    }
    d0 = (((eq & vp) + vp) ^ vp) | eq | vn | tr;
    uint64_t hp = vn | ~(d0 | vp);
    const uint64_t hn = vp & d0;
    score += (hp & last) != 0;
    score -= (hn & last) != 0;
    hp = (hp << 1) | 1;  // row 0 grows by one per text byte
    vp = (hn << 1) | ~(d0 | hp);
    vn = hp & d0;
  }
  return score;
}

// Full-matrix DP fallback for strings over 64 bytes. If
// with_transpositions is true, computes OSA Damerau. Values are clamped at
// kInf = max_distance + 1 and the computation aborts as soon as an entire
// row exceeds the bound.
int DpDistance(std::string_view a, std::string_view b, int max_distance,
               bool with_transpositions) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  const int kInf = max_distance + 1;
  std::vector<int> prev2(static_cast<size_t>(m) + 1, kInf);
  std::vector<int> prev(static_cast<size_t>(m) + 1, kInf);
  std::vector<int> curr(static_cast<size_t>(m) + 1, kInf);
  for (int j = 0; j <= m; ++j) prev[j] = std::min(j, kInf);

  for (int i = 1; i <= n; ++i) {
    curr[0] = std::min(i, kInf);
    int row_min = curr[0];
    for (int j = 1; j <= m; ++j) {
      int cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      int best = Min3(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + cost);
      if (with_transpositions && i > 1 && j > 1 && a[i - 1] == b[j - 2] &&
          a[i - 2] == b[j - 1]) {
        best = std::min(best, prev2[j - 2] + 1);
      }
      curr[j] = std::min(best, kInf);
      row_min = std::min(row_min, curr[j]);
    }
    if (row_min > max_distance) return kInf;
    std::swap(prev2, prev);
    std::swap(prev, curr);
  }
  return prev[m];
}

// min(exact distance, max_distance + 1) for max_distance >= 0. Both
// distances are symmetric, so the shorter string is the pattern.
int ClampedDistance(std::string_view a, std::string_view b, int max_distance,
                    bool with_transpositions) {
  if (a.size() > b.size()) std::swap(a, b);
  if (b.size() - a.size() > static_cast<size_t>(max_distance)) {
    return max_distance + 1;
  }
  if (a.empty()) return static_cast<int>(b.size());
  if (a.size() > kWordBits) {
    return DpDistance(a, b, max_distance, with_transpositions);
  }
  const int d = with_transpositions ? BitParallelDistance<true>(a, b)
                                    : BitParallelDistance<false>(a, b);
  return std::min(d, max_distance + 1);
}

int Longest(std::string_view a, std::string_view b) {
  return static_cast<int>(std::max(a.size(), b.size()));
}

}  // namespace

int EditDistance(std::string_view a, std::string_view b) {
  return ClampedDistance(a, b, Longest(a, b), /*with_transpositions=*/false);
}

int DamerauDistance(std::string_view a, std::string_view b) {
  return ClampedDistance(a, b, Longest(a, b), /*with_transpositions=*/true);
}

int BoundedEditDistance(std::string_view a, std::string_view b,
                        int max_distance) {
  if (max_distance < 0) return 0;
  return ClampedDistance(a, b, max_distance, /*with_transpositions=*/false);
}

int BoundedDamerauDistance(std::string_view a, std::string_view b,
                           int max_distance) {
  if (max_distance < 0) return 0;
  return ClampedDistance(a, b, max_distance, /*with_transpositions=*/true);
}

bool IsSingleTransposition(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  size_t i = 0;
  while (i < a.size() && a[i] == b[i]) ++i;
  // a[i] != b[i] == a[i+1] below, so the swapped bytes differ.
  return i + 1 < a.size() && a[i] == b[i + 1] && a[i + 1] == b[i] &&
         a.substr(i + 2) == b.substr(i + 2);
}

double StringSimilarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  int d = DamerauDistance(a, b);
  return 1.0 - static_cast<double>(d) / static_cast<double>(longest);
}

bool WithinDistance(std::string_view a, std::string_view b,
                    int max_distance) {
  return BoundedDamerauDistance(a, b, max_distance) <= max_distance;
}

}  // namespace mergepurge
