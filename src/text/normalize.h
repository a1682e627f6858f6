// Record conditioning / pre-processing (paper §3.2): normalization of case,
// whitespace and punctuation, salutation and suffix stripping for name
// fields, and street-type abbreviation canonicalization for address fields.
// Conditioning runs once over the concatenated list before key creation.

#ifndef MERGEPURGE_TEXT_NORMALIZE_H_
#define MERGEPURGE_TEXT_NORMALIZE_H_

#include <string>
#include <string_view>

#include "record/dataset.h"

namespace mergepurge {

// Collapses runs of whitespace to single spaces, trims ends, upper-cases,
// and drops punctuation except digits/letters/spaces.
std::string NormalizeBasic(std::string_view s);

// NormalizeBasic plus: strips leading salutations (MR, MRS, MS, DR, PROF)
// and trailing generational suffixes (JR, SR, II, III, IV).
std::string NormalizeName(std::string_view s);

// NormalizeBasic plus: canonicalizes street-type words (STREET->ST,
// AVENUE->AVE, ROAD->RD, DRIVE->DR, LANE->LN, BOULEVARD->BLVD, COURT->CT,
// PLACE->PL) and directionals (NORTH->N, ...).
std::string NormalizeAddress(std::string_view s);

// Keeps only digits (for ssn / zip fields).
std::string NormalizeDigits(std::string_view s);

// Conditions one employee-schema record in place, applying the
// appropriate normalizer per field. Used by the dataset conditioner below
// and by read-only probes that must key a candidate record exactly as an
// admitted one without touching a Dataset.
void ConditionEmployeeRecord(Record* record);

// Conditions every record of an employee-schema dataset in place, applying
// the appropriate normalizer per field, on `threads` threads (records are
// independent, so the result does not depend on it).
void ConditionEmployeeDataset(Dataset* dataset, size_t threads = 1);

}  // namespace mergepurge

#endif  // MERGEPURGE_TEXT_NORMALIZE_H_
