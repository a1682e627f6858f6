#include "text/normalize.h"

#include <cctype>
#include <string_view>
#include <vector>

#include "util/string_util.h"
#include "util/thread_pool.h"

namespace mergepurge {

namespace {

// Token-level rewrite table entry.
struct TokenRewrite {
  std::string_view from;
  std::string_view to;
};

constexpr TokenRewrite kStreetRewrites[] = {
    {"STREET", "ST"},    {"AVENUE", "AVE"},   {"ROAD", "RD"},
    {"DRIVE", "DR"},     {"LANE", "LN"},      {"BOULEVARD", "BLVD"},
    {"COURT", "CT"},     {"PLACE", "PL"},     {"TERRACE", "TER"},
    {"CIRCLE", "CIR"},   {"HIGHWAY", "HWY"},  {"PARKWAY", "PKWY"},
    {"NORTH", "N"},      {"SOUTH", "S"},      {"EAST", "E"},
    {"WEST", "W"},       {"APARTMENT", "APT"}, {"SUITE", "STE"},
};

constexpr std::string_view kSalutations[] = {"MR", "MRS", "MS", "DR", "PROF"};
constexpr std::string_view kSuffixes[] = {"JR", "SR", "II", "III", "IV"};

std::vector<std::string> Tokenize(std::string_view s) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : s) {
    if (c == ' ') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

}  // namespace

std::string NormalizeBasic(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool pending_space = false;
  for (char c : s) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (std::isalnum(uc)) {
      if (pending_space && !out.empty()) out += ' ';
      pending_space = false;
      out += static_cast<char>(std::toupper(uc));
    } else if (std::isspace(uc) || c == '-' || c == '/' || c == ',' ||
               c == '.') {
      // Separators become (collapsed) spaces.
      pending_space = true;
    }
    // Other punctuation (apostrophes etc.) is dropped entirely, so
    // O'BRIEN -> OBRIEN.
  }
  return out;
}

std::string NormalizeName(std::string_view s) {
  std::string basic = NormalizeBasic(s);
  std::vector<std::string> tokens = Tokenize(basic);
  size_t begin = 0;
  size_t end = tokens.size();
  if (begin < end) {
    for (std::string_view sal : kSalutations) {
      if (tokens[begin] == sal) {
        ++begin;
        break;
      }
    }
  }
  if (begin < end) {
    for (std::string_view suf : kSuffixes) {
      if (tokens[end - 1] == suf) {
        --end;
        break;
      }
    }
  }
  std::vector<std::string> kept(tokens.begin() + static_cast<long>(begin),
                                tokens.begin() + static_cast<long>(end));
  // Never strip down to nothing: a name that is only "JR" stays "JR".
  if (kept.empty()) return basic;
  return Join(kept, " ");
}

std::string NormalizeAddress(std::string_view s) {
  std::string basic = NormalizeBasic(s);
  std::vector<std::string> tokens = Tokenize(basic);
  for (std::string& token : tokens) {
    for (const TokenRewrite& rewrite : kStreetRewrites) {
      if (token == rewrite.from) {
        token = std::string(rewrite.to);
        break;
      }
    }
  }
  return Join(tokens, " ");
}

std::string NormalizeDigits(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c))) out += c;
  }
  return out;
}

void ConditionEmployeeRecord(Record* record) {
  Record& r = *record;
  r.set_field(employee::kSsn,
              NormalizeDigits(r.field(employee::kSsn)));
  r.set_field(employee::kFirstName,
              NormalizeName(r.field(employee::kFirstName)));
  r.set_field(employee::kInitial,
              NormalizeBasic(r.field(employee::kInitial)));
  r.set_field(employee::kLastName,
              NormalizeName(r.field(employee::kLastName)));
  r.set_field(employee::kAddress,
              NormalizeAddress(r.field(employee::kAddress)));
  r.set_field(employee::kApartment,
              NormalizeAddress(r.field(employee::kApartment)));
  r.set_field(employee::kCity,
              NormalizeBasic(r.field(employee::kCity)));
  r.set_field(employee::kState,
              NormalizeBasic(r.field(employee::kState)));
  r.set_field(employee::kZip,
              NormalizeDigits(r.field(employee::kZip)));
}

void ConditionEmployeeDataset(Dataset* dataset, size_t threads) {
  ParallelFor(dataset->size(), threads, [dataset](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ConditionEmployeeRecord(
          &dataset->mutable_record(static_cast<TupleId>(i)));
    }
  });
}

}  // namespace mergepurge
