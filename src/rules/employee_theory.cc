#include "rules/employee_theory.h"

#include <algorithm>
#include <array>
#include <optional>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "record/schema.h"
#include "text/edit_distance.h"
#include "text/keyboard_distance.h"
#include "text/nicknames.h"
#include "text/phonetic.h"

namespace mergepurge {

namespace {

constexpr std::array<std::string_view, EmployeeTheory::kNumRules> kRuleNames =
    {
        "identical-records",
        "exact-names-and-address",
        "exact-ssn-and-names",
        "ssn-names-similar",
        "ssn-last-and-first-initial",
        "ssn-nickname",
        "ssn-address",
        "ssn-location-last",
        "ssn-close-names",
        "ssn-close-address",
        "ssn-transposed-name-address",
        "paper-example-rule",
        "names-exact-address-similar",
        "names-similar-address-corroborated",
        "nickname-last-address",
        "initials-address-location",
        "last-transposed-address",
        "first-transposed-address",
        "missing-first-address",
        "hyphenated-last-address",
        "street-number-zip",
        "phonetic-names-address",
        "last-name-changed",
        "names-zip-address",
        "apartment-corroborated",
        "aggregate-similarity",
};

// True if one string is a hyphen-extended or concatenated form of the other
// (e.g. SMITH vs SMITH JONES after normalization), with a minimum shared
// prefix so short accidental prefixes do not fire.
bool HyphenatedExtension(std::string_view x, std::string_view y) {
  if (x.size() == y.size()) return false;
  std::string_view shorter = x.size() < y.size() ? x : y;
  std::string_view longer = x.size() < y.size() ? y : x;
  if (shorter.size() < 4) return false;
  if (longer.substr(0, shorter.size()) != shorter) return false;
  // The extension must start a new token.
  char next = longer[shorter.size()];
  return next == ' ' || next == '-';
}

// Leading digit run of an address ("123 MAIN ST" -> "123").
std::string_view StreetNumber(std::string_view address) {
  size_t i = 0;
  while (i < address.size() && address[i] >= '0' && address[i] <= '9') ++i;
  return address.substr(0, i);
}

}  // namespace

EmployeeTheory::EmployeeTheory(EmployeeTheoryOptions options)
    : options_(options) {}

std::string_view EmployeeTheory::RuleName(size_t index) {
  return kRuleNames[index];
}

void EmployeeTheory::FlushMetrics() const {
  // Counter handles resolved once per process; the names are stable.
  static const std::array<Counter*, kNumRules>& fired = [] {
    static std::array<Counter*, kNumRules> counters;
    for (size_t i = 0; i < kNumRules; ++i) {
      counters[i] = MetricsRegistry::Global().GetCounter(
          std::string(metric_names::kRulesFiredPrefix) +
          std::string(kRuleNames[i]));
    }
    return counters;
  }();
  static Counter* const distance_calls =
      MetricsRegistry::Global().GetCounter(metric_names::kRulesDistanceCalls);
  static Counter* const early_exits =
      MetricsRegistry::Global().GetCounter(metric_names::kRulesEarlyExits);

  for (size_t i = 0; i < kNumRules; ++i) {
    if (fire_counts_[i] != 0) fired[i]->Add(fire_counts_[i]);
  }
  distance_calls->Add(distance_calls_);
  early_exits->Add(distance_early_exits_);
  fire_counts_.fill(0);
  distance_calls_ = 0;
  distance_early_exits_ = 0;
}

double EmployeeTheory::Similarity(std::string_view x,
                                  std::string_view y) const {
  ++distance_calls_;
  size_t longest = std::max(x.size(), y.size());
  if (longest == 0) return 1.0;
  switch (options_.distance) {
    case EmployeeTheoryOptions::Distance::kEdit:
      return 1.0 -
             static_cast<double>(EditDistance(x, y)) /
                 static_cast<double>(longest);
    case EmployeeTheoryOptions::Distance::kDamerau:
      return 1.0 -
             static_cast<double>(DamerauDistance(x, y)) /
                 static_cast<double>(longest);
    case EmployeeTheoryOptions::Distance::kKeyboard:
      return KeyboardSimilarity(x, y);
  }
  return 0.0;
}

bool EmployeeTheory::SimilarityAtLeast(std::string_view x,
                                       std::string_view y,
                                       double threshold) const {
  size_t longest = std::max(x.size(), y.size());
  if (longest == 0) return 1.0 >= threshold;
  if (options_.distance == EmployeeTheoryOptions::Distance::kKeyboard) {
    // Keyboard distance has fractional costs; no bounded variant.
    return Similarity(x, y) >= threshold;
  }
  ++distance_calls_;

  // Largest integer distance d with (1.0 - d/L) >= threshold, found by
  // evaluating the SAME floating-point expression Similarity() uses so
  // the decision boundary is bit-identical.
  const double length = static_cast<double>(longest);
  int max_distance =
      static_cast<int>((1.0 - threshold) * length);
  while (1.0 - static_cast<double>(max_distance + 1) / length >=
         threshold) {
    ++max_distance;
  }
  while (max_distance >= 0 &&
         1.0 - static_cast<double>(max_distance) / length < threshold) {
    --max_distance;
  }
  if (max_distance < 0) {
    // Length difference alone rules the pair out; no cells computed.
    ++distance_early_exits_;
    return false;
  }

  int distance =
      options_.distance == EmployeeTheoryOptions::Distance::kEdit
          ? BoundedEditDistance(x, y, max_distance)
          : BoundedDamerauDistance(x, y, max_distance);
  if (distance > max_distance) ++distance_early_exits_;
  return distance <= max_distance;
}

namespace {

// Lazily evaluated pair context: each predicate is computed at most once
// per comparison. The theory's rules read these; the expensive distance
// computations only run for the rules actually reached.
class PairContext {
 public:
  PairContext(const Record& a, const Record& b, const EmployeeTheory& theory,
              const EmployeeTheoryOptions& options)
      : a_(a), b_(b), theory_(theory), options_(options) {}

  std::string_view f1(FieldId f) const { return a_.field(f); }
  std::string_view f2(FieldId f) const { return b_.field(f); }

  bool FieldEq(FieldId f) const { return f1(f) == f2(f) && !f1(f).empty(); }

  // --- SSN evidence. ---
  bool SsnEq() const { return FieldEq(employee::kSsn); }
  bool SsnClose() const {
    Lazy(&ssn_close_, [this] {
      std::string_view x = f1(employee::kSsn);
      std::string_view y = f2(employee::kSsn);
      return !x.empty() && !y.empty() &&
             BoundedDamerauDistance(x, y, 1) <= 1;
    });
    return *ssn_close_;
  }
  bool SsnTransposed() const {
    return IsSingleTransposition(f1(employee::kSsn), f2(employee::kSsn));
  }
  // SSNs do not contradict each other: equal, close, or one missing.
  bool SsnCompatible() const {
    return f1(employee::kSsn).empty() || f2(employee::kSsn).empty() ||
           SsnClose();
  }

  // --- Name evidence. ---
  bool FirstEq() const { return FieldEq(employee::kFirstName); }
  bool LastEq() const { return FieldEq(employee::kLastName); }

  bool SameCanonicalFirst() const {
    if (!options_.use_nicknames) return false;
    std::string_view x = f1(employee::kFirstName);
    std::string_view y = f2(employee::kFirstName);
    if (x.empty() || y.empty()) return false;
    return NicknameTable::Default().SameCanonicalName(x, y);
  }

  bool FirstInitialMatch() const {
    std::string_view x = f1(employee::kFirstName);
    std::string_view y = f2(employee::kFirstName);
    if (x.empty() || y.empty()) return false;
    if (x == y) return true;
    return (x.size() == 1 && x[0] == y[0]) ||
           (y.size() == 1 && y[0] == x[0]);
  }

  // Thresholded similarity over a (possibly empty) name field pair; empty
  // fields never pass (matching Similarity()'s callers historically
  // mapping empty -> 0 similarity).
  bool FieldSimilarAtLeast(FieldId f, double threshold) const {
    std::string_view x = f1(f);
    std::string_view y = f2(f);
    if (x.empty() || y.empty()) return false;
    return theory_.SimilarityAtLeast(x, y, threshold);
  }

  bool FirstSimilar() const {
    Lazy(&first_similar_, [this] {
      if (f1(employee::kFirstName).empty() ||
          f2(employee::kFirstName).empty()) {
        return false;
      }
      return SameCanonicalFirst() || FirstInitialMatch() ||
             FieldSimilarAtLeast(employee::kFirstName,
                                 options_.name_threshold);
    });
    return *first_similar_;
  }
  bool LastSimilar() const {
    Lazy(&last_similar_, [this] {
      return FieldSimilarAtLeast(employee::kLastName,
                                 options_.name_threshold);
    });
    return *last_similar_;
  }
  // A slightly looser surname test used where other evidence is strong.
  bool LastWeaklySimilar() const {
    Lazy(&last_weakly_similar_, [this] {
      return FieldSimilarAtLeast(employee::kLastName,
                                 options_.weak_name_threshold);
    });
    return *last_weakly_similar_;
  }
  bool BothNamesSimilar() const { return FirstSimilar() && LastSimilar(); }

  bool FirstMissingEither() const {
    return f1(employee::kFirstName).empty() !=
           f2(employee::kFirstName).empty();
  }

  bool LastTransposed() const {
    return IsSingleTransposition(f1(employee::kLastName),
                                 f2(employee::kLastName));
  }
  bool FirstTransposed() const {
    return IsSingleTransposition(f1(employee::kFirstName),
                                 f2(employee::kFirstName));
  }

  bool NamesSoundAlike() const {
    return SoundsAlikeSoundex(f1(employee::kLastName),
                              f2(employee::kLastName)) &&
           SoundsAlikeSoundex(f1(employee::kFirstName),
                              f2(employee::kFirstName));
  }

  // --- Address / location evidence. ---
  bool AddressEq() const { return FieldEq(employee::kAddress); }
  bool AddressSimilar() const {
    Lazy(&address_similar_, [this] {
      return FieldSimilarAtLeast(employee::kAddress,
                                 options_.address_threshold);
    });
    return *address_similar_;
  }
  bool ApartmentCompatible() const {
    std::string_view x = f1(employee::kApartment);
    std::string_view y = f2(employee::kApartment);
    return x.empty() || y.empty() || x == y;
  }
  bool ApartmentEqNonEmpty() const {
    return FieldEq(employee::kApartment);
  }
  bool StreetNumberEq() const {
    std::string_view x = StreetNumber(f1(employee::kAddress));
    std::string_view y = StreetNumber(f2(employee::kAddress));
    return !x.empty() && x == y;
  }

  bool CitySimilar() const {
    std::string_view x = f1(employee::kCity);
    std::string_view y = f2(employee::kCity);
    if (x.empty() || y.empty()) return false;
    if (x == y) return true;
    if (options_.strict_city) return false;
    return theory_.SimilarityAtLeast(x, y, options_.city_threshold);
  }
  bool StateEq() const { return FieldEq(employee::kState); }
  bool ZipEq() const { return FieldEq(employee::kZip); }
  bool ZipClose() const {
    std::string_view x = f1(employee::kZip);
    std::string_view y = f2(employee::kZip);
    return !x.empty() && !y.empty() && BoundedDamerauDistance(x, y, 1) <= 1;
  }
  bool LocationMatch() const {
    return ZipEq() || (CitySimilar() && StateEq());
  }
  bool LocationCompatible() const {
    // No strong contradiction: any of zip/city/state agrees loosely, or
    // location fields are absent.
    if (f1(employee::kZip).empty() || f2(employee::kZip).empty()) {
      return true;
    }
    return ZipClose() || CitySimilar() || StateEq();
  }

  // Weighted whole-record similarity for the aggregate rule. When the
  // running score provably cannot reach the 0.90 acceptance level any
  // more, the remaining (expensive) field similarities are skipped and a
  // value below the threshold is returned (only the >= 0.90 comparison is
  // observable; a conservative margin protects the boundary).
  double AggregateScore() const {
    struct WeightedField {
      FieldId field;
      double weight;
    };
    // Heaviest fields first so hopeless pairs exit earliest.
    static constexpr WeightedField kFields[] = {
        {employee::kSsn, 3.0},       {employee::kLastName, 3.0},
        {employee::kFirstName, 2.0}, {employee::kAddress, 2.0},
        {employee::kCity, 1.0},      {employee::kZip, 1.0},
    };
    double total_weight = 0.0;
    for (const WeightedField& wf : kFields) {
      if (!(f1(wf.field).empty() && f2(wf.field).empty())) {
        total_weight += wf.weight;
      }
    }
    if (total_weight <= 0.0) return 0.0;

    double score = 0.0;
    double remaining = total_weight;
    for (const WeightedField& wf : kFields) {
      std::string_view x = f1(wf.field);
      std::string_view y = f2(wf.field);
      if (x.empty() && y.empty()) continue;
      remaining -= wf.weight;
      score += wf.weight * theory_.Similarity(x, y);
      if ((score + remaining) / total_weight < 0.895) {
        return (score + remaining) / total_weight;  // Provably < 0.90.
      }
    }
    return score / total_weight;
  }

  bool PhoneticGatePasses() const {
    if (!options_.phonetic_gate) return true;
    return SoundsAlikeSoundex(f1(employee::kLastName),
                              f2(employee::kLastName));
  }

 private:
  template <typename T, typename F>
  static void Lazy(std::optional<T>* slot, F&& compute) {
    if (!slot->has_value()) *slot = compute();
  }

  const Record& a_;
  const Record& b_;
  const EmployeeTheory& theory_;
  const EmployeeTheoryOptions& options_;

  mutable std::optional<bool> ssn_close_;
  mutable std::optional<bool> first_similar_;
  mutable std::optional<bool> last_similar_;
  mutable std::optional<bool> last_weakly_similar_;
  mutable std::optional<bool> address_similar_;
};

}  // namespace

int EmployeeTheory::MatchingRule(const Record& a, const Record& b) const {
  ++comparison_count_;
  int rule = EvalRules(a, b);
  if (rule >= 0) ++fire_counts_[static_cast<size_t>(rule)];
  return rule;
}

int EmployeeTheory::EvalRules(const Record& a, const Record& b) const {
  const PairContext ctx(a, b, *this, options_);

  // Rules are checked most-specific first; the index returned matches
  // kRuleNames. A global phonetic gate (ablation option) can veto
  // name-similarity based rules.
  const bool gate = ctx.PhoneticGatePasses();

  // 0 identical-records.
  if (a == b) return 0;
  // 1 exact-names-and-address.
  if (ctx.FirstEq() && ctx.LastEq() && ctx.AddressEq() &&
      ctx.ApartmentCompatible()) {
    return 1;
  }
  // 2 exact-ssn-and-names.
  if (ctx.SsnEq() && ctx.FirstEq() && ctx.LastEq()) return 2;
  // 3 ssn-names-similar.
  if (gate && ctx.SsnEq() && ctx.BothNamesSimilar()) return 3;
  // 4 ssn-last-and-first-initial.
  if (ctx.SsnEq() && ctx.LastEq() && ctx.FirstInitialMatch()) return 4;
  // 5 ssn-nickname.
  if (gate && ctx.SsnEq() && ctx.SameCanonicalFirst() &&
      ctx.LastWeaklySimilar()) {
    return 5;
  }
  // 6 ssn-address.
  if (ctx.SsnEq() && ctx.AddressSimilar() && ctx.ApartmentCompatible()) {
    return 6;
  }
  // 7 ssn-location-last.
  if (gate && ctx.SsnEq() && ctx.LocationMatch() && ctx.LastWeaklySimilar()) {
    return 7;
  }
  // 8 ssn-close-names.
  if (gate && ctx.SsnClose() && ctx.BothNamesSimilar()) return 8;
  // 9 ssn-close-address.
  if (gate && ctx.SsnClose() && ctx.LastSimilar() && ctx.AddressSimilar()) {
    return 9;
  }
  // 10 ssn-transposed-name-address.
  if (ctx.SsnTransposed() && (ctx.FirstSimilar() || ctx.LastSimilar()) &&
      ctx.AddressSimilar()) {
    return 10;
  }
  // 11 paper-example-rule: "IF the last name of r1 equals the last name of
  // r2, AND the first names differ slightly, AND the address of r1 equals
  // the address of r2 THEN r1 is equivalent to r2".
  if (gate && ctx.LastEq() && ctx.FirstSimilar() && ctx.AddressEq()) {
    return 11;
  }
  // 12 names-exact-address-similar.
  if (ctx.FirstEq() && ctx.LastEq() && ctx.AddressSimilar() &&
      ctx.ApartmentCompatible()) {
    return 12;
  }
  // 13 names-similar-address-corroborated.
  if (gate && ctx.BothNamesSimilar() && ctx.AddressSimilar() &&
      ctx.ApartmentCompatible() && ctx.LocationCompatible() &&
      ctx.SsnCompatible()) {
    return 13;
  }
  // 14 nickname-last-address.
  if (gate && ctx.SameCanonicalFirst() && ctx.LastEq() &&
      ctx.AddressSimilar()) {
    return 14;
  }
  // 15 initials-address-location.
  if (ctx.FirstInitialMatch() && ctx.LastEq() && ctx.AddressEq() &&
      ctx.LocationMatch()) {
    return 15;
  }
  // 16 last-transposed-address.
  if (ctx.LastTransposed() && ctx.FirstSimilar() && ctx.AddressSimilar()) {
    return 16;
  }
  // 17 first-transposed-address.
  if (ctx.FirstTransposed() && ctx.LastSimilar() && ctx.AddressSimilar()) {
    return 17;
  }
  // 18 missing-first-address: one record lacks the first name entirely.
  if (ctx.FirstMissingEither() && ctx.LastEq() && ctx.AddressEq() &&
      ctx.ApartmentCompatible() && ctx.LocationMatch()) {
    return 18;
  }
  // 19 hyphenated-last-address: SMITH vs SMITH-JONES at the same address.
  if (HyphenatedExtension(a.field(employee::kLastName),
                          b.field(employee::kLastName)) &&
      ctx.FirstSimilar() && ctx.AddressSimilar()) {
    return 19;
  }
  // 20 street-number-zip: same street number and zip, names similar
  // (street name badly corrupted).
  if (gate && ctx.StreetNumberEq() && ctx.ZipEq() && ctx.LastEq() &&
      ctx.FirstSimilar()) {
    return 20;
  }
  // 21 phonetic-names-address. (Address similarity is memoized and almost
  // always false for non-matches, so it is checked before the Soundex
  // computations; conjunction order does not change the outcome.)
  if (ctx.AddressSimilar() && ctx.NamesSoundAlike() && ctx.LocationMatch()) {
    return 21;
  }
  // 22 last-name-changed: marriage / alias — surname may be completely
  // different, everything else must line up exactly.
  if (ctx.FirstEq() && ctx.AddressEq() && ctx.ApartmentEqNonEmpty() &&
      ctx.ZipEq()) {
    return 22;
  }
  // 23 names-zip-address: zip corroborates when city is corrupted.
  if (gate && ctx.LastEq() && ctx.FirstSimilar() && ctx.AddressSimilar() &&
      ctx.ZipEq()) {
    return 23;
  }
  // 24 apartment-corroborated: exact address + apartment with a weakly
  // similar surname — but the first names must not contradict (otherwise
  // every two-person household would merge).
  if (ctx.AddressEq() && ctx.ApartmentEqNonEmpty() &&
      ctx.LastWeaklySimilar() && ctx.LocationMatch() &&
      (ctx.FirstSimilar() || ctx.FirstMissingEither())) {
    return 24;
  }
  // 25 aggregate-similarity: high weighted whole-record similarity with no
  // SSN contradiction. The cheap SSN gate runs first: for the typical
  // non-matching pair it short-circuits the six field similarities.
  if (ctx.SsnCompatible() && ctx.AggregateScore() >= 0.90) return 25;

  return -1;
}

bool EmployeeTheory::Matches(const Record& a, const Record& b) const {
  return MatchingRule(a, b) >= 0;
}

}  // namespace mergepurge
