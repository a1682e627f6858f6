#include "text/phonetic.h"

#include <cctype>

namespace mergepurge {

namespace {

// Soundex digit classes; 0 means "not coded" (vowels, h, w, y).
char SoundexDigit(char c) {
  switch (std::tolower(static_cast<unsigned char>(c))) {
    case 'b':
    case 'f':
    case 'p':
    case 'v':
      return '1';
    case 'c':
    case 'g':
    case 'j':
    case 'k':
    case 'q':
    case 's':
    case 'x':
    case 'z':
      return '2';
    case 'd':
    case 't':
      return '3';
    case 'l':
      return '4';
    case 'm':
    case 'n':
      return '5';
    case 'r':
      return '6';
    default:
      return '0';
  }
}

bool IsVowel(char c) {
  switch (std::tolower(static_cast<unsigned char>(c))) {
    case 'a':
    case 'e':
    case 'i':
    case 'o':
    case 'u':
      return true;
    default:
      return false;
  }
}

// Strips non-letters and upper-cases; returns empty if no letters.
std::string LettersUpper(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (std::isalpha(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  return out;
}

// Writes the four-byte Soundex code of `name` into `code`; false when
// `name` has no letters. Non-letters are skipped as if absent.
bool SoundexInto(std::string_view name, char (&code)[4]) {
  auto is_letter = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0;
  };
  size_t i = 0;
  while (i < name.size() && !is_letter(name[i])) ++i;
  if (i == name.size()) return false;

  code[0] =
      static_cast<char>(std::toupper(static_cast<unsigned char>(name[i])));
  size_t len = 1;
  char prev_digit = SoundexDigit(code[0]);
  for (++i; i < name.size() && len < 4; ++i) {
    char c = name[i];
    if (!is_letter(c)) continue;
    char digit = SoundexDigit(c);
    char lower = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (lower == 'h' || lower == 'w') {
      // h and w are transparent: they do not reset the repeat suppression.
      continue;
    }
    if (digit != '0' && digit != prev_digit) code[len++] = digit;
    prev_digit = digit;
  }
  while (len < 4) code[len++] = '0';
  return true;
}

}  // namespace

std::string Soundex(std::string_view name) {
  char code[4] = {};
  if (!SoundexInto(name, code)) return "";
  return std::string(code, sizeof(code));
}

std::string Nysiis(std::string_view name) {
  std::string s = LettersUpper(name);
  if (s.empty()) return "";

  // Initial-letter transformations.
  auto starts_with = [&s](const char* p) {
    return s.rfind(p, 0) == 0;
  };
  if (starts_with("MAC")) {
    s.replace(0, 3, "MCC");
  } else if (starts_with("KN")) {
    s.replace(0, 2, "NN");
  } else if (starts_with("K")) {
    s.replace(0, 1, "C");
  } else if (starts_with("PH") || starts_with("PF")) {
    s.replace(0, 2, "FF");
  } else if (starts_with("SCH")) {
    s.replace(0, 3, "SSS");
  }

  // Final-letter transformations.
  auto ends_with = [&s](const char* p) {
    size_t len = std::char_traits<char>::length(p);
    return s.size() >= len && s.compare(s.size() - len, len, p) == 0;
  };
  if (ends_with("EE") || ends_with("IE")) {
    s.replace(s.size() - 2, 2, "Y");
  } else if (ends_with("DT") || ends_with("RT") || ends_with("RD") ||
             ends_with("NT") || ends_with("ND")) {
    s.replace(s.size() - 2, 2, "D");
  }

  std::string key;
  key += s[0];
  char last = s[0];
  for (size_t i = 1; i < s.size(); ++i) {
    char c = s[i];
    // The replacement for c: a literal, or the one character in `own`.
    char own[2] = {c, '\0'};
    const char* repl = own;
    if (IsVowel(c)) {
      if (i + 1 < s.size() && c == 'E' && s[i + 1] == 'V') {
        repl = "AF";
        ++i;  // Consume the V.
      } else {
        repl = "A";
      }
    } else if (c == 'Q') {
      repl = "G";
    } else if (c == 'Z') {
      repl = "S";
    } else if (c == 'M') {
      repl = "N";
    } else if (c == 'K') {
      repl = (i + 1 < s.size() && s[i + 1] == 'N') ? "N" : "C";
    } else if (c == 'S' && i + 2 < s.size() && s[i + 1] == 'C' &&
               s[i + 2] == 'H') {
      repl = "SSS";
      i += 2;
    } else if (c == 'P' && i + 1 < s.size() && s[i + 1] == 'H') {
      repl = "FF";
      ++i;
    } else if (c == 'H' &&
               (!IsVowel(last) ||
                (i + 1 < s.size() && !IsVowel(s[i + 1])))) {
      own[0] = last;
    } else if (c == 'W' && IsVowel(last)) {
      own[0] = last;
    }
    for (const char* rc = repl; *rc != '\0'; ++rc) {
      if (*rc != key.back()) key += *rc;
      last = *rc;
    }
  }

  // Trailing S / AY / A cleanup.
  if (key.size() > 1 && key.back() == 'S') key.pop_back();
  if (key.size() > 2 && key.compare(key.size() - 2, 2, "AY") == 0) {
    key.replace(key.size() - 2, 2, "Y");
  }
  if (key.size() > 1 && key.back() == 'A') key.pop_back();

  if (key.size() > 6) key.resize(6);
  return key;
}

bool SoundsAlikeSoundex(std::string_view a, std::string_view b) {
  char ca[4] = {};
  char cb[4] = {};
  return SoundexInto(a, ca) && SoundexInto(b, cb) &&
         std::string_view(ca, sizeof(ca)) == std::string_view(cb, sizeof(cb));
}

bool SoundsAlikeNysiis(std::string_view a, std::string_view b) {
  std::string ca = Nysiis(a);
  if (ca.empty()) return false;
  return ca == Nysiis(b);
}

}  // namespace mergepurge
