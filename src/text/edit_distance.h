// Typographical distance functions used by the equational theory.
//
// The paper evaluated "a number of alternative distance functions ...
// including distances based upon edit distance, phonetic distance and
// 'typewriter' distance" and reported results with edit distance. We
// implement:
//   * Levenshtein edit distance (insert/delete/substitute, unit costs),
//   * Damerau (optimal string alignment) distance adding transpositions —
//     the dominant real-world typo per the spelling-correction literature
//     the paper cites (Kukich '92),
//   * thresholded variants that report any distance above a bound as
//     bound + 1, keeping window scanning cheap,
//   * an O(n) test for "exactly one adjacent transposition",
//   * a normalized similarity in [0,1] for rule thresholds.
//
// Cost: when the shorter string is at most 64 bytes (every field of the
// employee schema in practice), all four distances run a one-word
// bit-parallel kernel (Myers 1999 for Levenshtein, Hyyro 2003 for OSA
// Damerau) in O(|a| + |b|) word operations and no allocation. Above that
// they fall back to a row-by-row DP in O(|a| * |b|) time.

#ifndef MERGEPURGE_TEXT_EDIT_DISTANCE_H_
#define MERGEPURGE_TEXT_EDIT_DISTANCE_H_

#include <string_view>

namespace mergepurge {

// Classic Levenshtein distance.
int EditDistance(std::string_view a, std::string_view b);

// Optimal-string-alignment Damerau distance: Levenshtein plus adjacent
// transposition as a unit-cost operation.
int DamerauDistance(std::string_view a, std::string_view b);

// Returns min(EditDistance(a, b), max_distance + 1), and 0 when
// max_distance < 0. A length gap over the bound answers without a kernel.
int BoundedEditDistance(std::string_view a, std::string_view b,
                        int max_distance);

// Damerau (OSA) with the same contract.
int BoundedDamerauDistance(std::string_view a, std::string_view b,
                           int max_distance);

// True when a and b have the same length and differ only by swapping two
// adjacent, different bytes: exactly DamerauDistance == 1 &&
// EditDistance == 2, in one pass over the strings.
bool IsSingleTransposition(std::string_view a, std::string_view b);

// 1 - distance / max(|a|, |b|), using Damerau distance; returns 1.0 when
// both strings are empty. This is the "differ slightly" measure the rule
// base thresholds.
double StringSimilarity(std::string_view a, std::string_view b);

// Returns true if the strings are within the given Damerau distance. This
// is the form the rule base uses.
bool WithinDistance(std::string_view a, std::string_view b, int max_distance);

}  // namespace mergepurge

#endif  // MERGEPURGE_TEXT_EDIT_DISTANCE_H_
