// mergepurge_deadlockcheck: the lock-discipline lint and whole-program
// static lock-order verification.
//
// Lint pass, over every .h/.hpp/.cc/.cpp under <root>/{src,tools,tests,
// bench,examples}: outside src/util/sync.h no code may use the raw std
// synchronization primitives, so everything stays inside the
// capability-annotated wrappers that clang -Wthread-safety proves (and
// gcc builds cannot quietly opt out of them):
//
//   * "naked-mutex", "naked-lock", "naked-condvar" — std::mutex family,
//     std::lock_guard/unique_lock/shared_lock/scoped_lock,
//     std::condition_variable[_any];
//   * "raw-lock-call" — bare .lock()/.unlock()/.try_lock()/... calls;
//   * "detached-thread" — .detach() on a thread;
//   * "sync-include" — including <mutex>, <shared_mutex> or
//     <condition_variable>;
//   * "missing-sync-include" — a lock-owning service/introspection
//     source (kMustIncludeSync) that does not include "util/sync.h",
//     directly or through its paired same-directory header.
//
// Lock-order pass, over every .h/.cc under <root>/src: reads the lock
// hierarchy manifest (tools/lock_hierarchy.json: names, order edges,
// excludes) and the rank of each lock from the rank table
// (src/util/lock_ranks.h), and verifies that the code's statically
// observable nested lock acquisitions obey them:
//
//   * every Mutex/SharedMutex declaration carries a lockrank:: rank and
//     appears in the manifest (and vice versa) — "unranked-mutex",
//     "unknown-rank-symbol", "missing-declaration";
//   * every nested acquisition (directly, or transitively through the
//     static call graph) is rank-increasing and listed in the manifest's
//     "order" edges — "rank-inversion", "undeclared-edge";
//   * "excludes" pairs are never observed nested in either direction —
//     "excludes-violation" — and functions annotated
//     MERGEPURGE_EXCLUDES(m) are never reached with m held —
//     "excludes-annotation-violation";
//   * the union of manifest and observed edges is acyclic — "cycle";
//   * docs/concurrency.md documents every lock with its rank symbol,
//     outer to inner — "doc-mismatch".
//
// Both passes read sources through Normalize (comments and literals
// blanked). The lock-order scanner is a heuristic single-pass C++ reader
// (chunked at ;{}, scope stack for namespace/class/function), not a
// compiler. Its known blind spots — std::function and lambda
// indirection across threads, destructor-time acquisitions, callback
// bodies attributed to their defining function — are exactly what the
// runtime LockOrderValidator in src/util/sync.h covers in sanitizer
// builds. The two checks are designed as a pair.
//
// Suppression: a line (or the line above) may carry the marker
// "deadlockcheck: allow(" + a comma-separated list of finding ids + ")"
// in a comment to waive those ids at that site; a marker naming an
// unknown id is itself a "bad-allow" finding.
//
// Exit codes: 0 clean, 1 findings, 2 usage error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "obs/json.h"

namespace fs = std::filesystem;
using mergepurge::JsonValue;

namespace {

// ---------------------------------------------------------------------------
// Small utilities.

std::optional<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Last identifier token in `s` ("service_->theory_mu_" -> "theory_mu_").
std::string LastIdent(const std::string& s) {
  int end = static_cast<int>(s.size());
  while (end > 0 && !IsIdentChar(s[end - 1])) --end;
  int begin = end;
  while (begin > 0 && IsIdentChar(s[begin - 1])) --begin;
  return s.substr(begin, end - begin);
}

// Content of the balanced paren group opening at s[open] (== '(');
// empty when unbalanced.
std::string BalancedParens(const std::string& s, size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')' && --depth == 0) return s.substr(open + 1, i - open - 1);
  }
  return "";
}

std::vector<std::string> SplitTopLevelCommas(const std::string& s) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (char c : s) {
    if (c == '(' || c == '<' || c == '[') ++depth;
    if (c == ')' || c == '>' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// ---------------------------------------------------------------------------
// Findings.

struct Finding {
  std::string file;
  int line = 0;
  std::string id;
  std::string msg;
};

// ---------------------------------------------------------------------------
// Manifest.

struct LockDef {
  std::string name;         // "WalWriter::mu_"
  std::string rank_symbol;  // "kWal"
  int rank = -1;
  bool shared = false;
};

struct ManifestData {
  std::vector<LockDef> locks;
  std::map<std::string, int> rank_by_name;
  std::map<std::string, std::string> name_by_symbol;
  std::set<std::pair<std::string, std::string>> order;  // from -> to
  std::set<std::pair<std::string, std::string>> excludes;  // both directions
  // Scoped RAII type -> lock it acquires ("GatedReaderLock" -> engine).
  std::map<std::string, std::string> scoped_lock;
};

// `ranks` maps each rank symbol to its value in `ranks_path` (the rank
// table, src/util/lock_ranks.h); the manifest itself carries no numbers.
bool ParseManifest(const std::string& path,
                   const std::map<std::string, int>& ranks,
                   const std::string& ranks_path, ManifestData* mf,
                   std::vector<Finding>* findings) {
  auto text = ReadFileToString(path);
  if (!text) {
    std::fprintf(stderr, "deadlockcheck: cannot read manifest %s\n",
                 path.c_str());
    return false;
  }
  auto parsed = JsonValue::Parse(*text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "deadlockcheck: %s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }
  const JsonValue& root = *parsed;
  const JsonValue* locks = root.Find("locks");
  if (locks == nullptr || !locks->is_array()) {
    findings->push_back({path, 1, "bad-manifest-edge",
                         "manifest has no 'locks' array"});
    return true;
  }
  for (const JsonValue& entry : locks->elements()) {
    LockDef def;
    if (const JsonValue* v = entry.Find("name")) def.name = v->string_value();
    if (const JsonValue* v = entry.Find("rank_symbol"))
      def.rank_symbol = v->string_value();
    if (const JsonValue* v = entry.Find("kind"))
      def.shared = v->string_value() == "shared";
    if (def.name.empty() || def.rank_symbol.empty()) {
      findings->push_back({path, 1, "bad-manifest-edge",
                           "lock entry missing name/rank_symbol: '" +
                               def.name + "'"});
      continue;
    }
    auto rank = ranks.find(def.rank_symbol);
    if (rank == ranks.end() || rank->second < 0) {
      findings->push_back({path, 1, "unknown-rank-symbol",
                           "lock '" + def.name + "': lockrank::" +
                               def.rank_symbol + " has no rank in " +
                               ranks_path});
      continue;
    }
    def.rank = rank->second;
    if (mf->rank_by_name.count(def.name) != 0 ||
        mf->name_by_symbol.count(def.rank_symbol) != 0) {
      findings->push_back({path, 1, "duplicate-rank-symbol",
                           "duplicate lock name or rank symbol: " + def.name +
                               " / " + def.rank_symbol});
      continue;
    }
    for (const LockDef& other : mf->locks) {
      if (other.rank == def.rank) {
        findings->push_back({path, 1, "duplicate-rank-symbol",
                             "rank " + std::to_string(def.rank) +
                                 " assigned to both " + other.name + " and " +
                                 def.name});
      }
    }
    mf->rank_by_name[def.name] = def.rank;
    mf->name_by_symbol[def.rank_symbol] = def.name;
    mf->locks.push_back(def);
  }
  if (const JsonValue* order = root.Find("order")) {
    for (const JsonValue& edge : order->elements()) {
      const JsonValue* from = edge.Find("from");
      const JsonValue* to = edge.Find("to");
      if (from == nullptr || to == nullptr) {
        findings->push_back({path, 1, "bad-manifest-edge",
                             "order edge missing from/to"});
        continue;
      }
      const std::string f = from->string_value();
      const std::string t = to->string_value();
      auto fit = mf->rank_by_name.find(f);
      auto tit = mf->rank_by_name.find(t);
      if (fit == mf->rank_by_name.end() || tit == mf->rank_by_name.end()) {
        findings->push_back({path, 1, "bad-manifest-edge",
                             "order edge references unknown lock: " + f +
                                 " -> " + t});
        continue;
      }
      if (fit->second >= tit->second) {
        findings->push_back(
            {path, 1, "bad-manifest-edge",
             "order edge is not rank-increasing: " + f + " (" +
                 std::to_string(fit->second) + ") -> " + t + " (" +
                 std::to_string(tit->second) + ")"});
      }
      mf->order.emplace(f, t);
    }
  }
  if (const JsonValue* ex = root.Find("excludes")) {
    for (const JsonValue& pair : ex->elements()) {
      const JsonValue* a = pair.Find("a");
      const JsonValue* b = pair.Find("b");
      if (a == nullptr || b == nullptr) continue;
      const std::string an = a->string_value();
      const std::string bn = b->string_value();
      if (mf->rank_by_name.count(an) == 0 || mf->rank_by_name.count(bn) == 0) {
        findings->push_back({path, 1, "bad-manifest-edge",
                             "excludes pair references unknown lock: " + an +
                                 " / " + bn});
        continue;
      }
      mf->excludes.emplace(an, bn);
      mf->excludes.emplace(bn, an);
    }
  }
  if (const JsonValue* st = root.Find("scoped_types")) {
    for (const auto& [type, spec] : st->members()) {
      const JsonValue* lock = spec.Find("lock");
      if (lock == nullptr || mf->rank_by_name.count(lock->string_value()) == 0) {
        findings->push_back({path, 1, "bad-manifest-edge",
                             "scoped_types." + type +
                                 " references unknown lock"});
        continue;
      }
      mf->scoped_lock[type] = lock->string_value();
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Source model.

struct FnEvent {
  std::string file;
  int line = 0;
  std::vector<std::string> held;  // lock names held at the site
  std::string target;             // lock name (acquire) or callee key (call)
  bool is_call = false;
};

struct FnInfo {
  // Raw member tokens from annotations; resolved lazily against the
  // function's class once all member maps exist.
  std::vector<std::string> requires_raw;
  std::vector<std::string> acquires_raw;
  std::vector<std::string> excludes_raw;
  std::string cls;  // enclosing class path ("" for free functions)
  std::set<std::string> direct;  // lock names acquired in the body
  std::set<std::string> calls;   // resolved callee keys
  std::set<std::string> trans;   // fixpoint: locks reachable from here
  std::vector<FnEvent> events;
};

struct HeldEntry {
  std::string lock;
  std::string var;  // scoped-lock variable name ("" for raw/REQUIRES)
  size_t depth = 0;  // scope-stack size at declaration
  bool active = true;
};

struct Frame {
  std::string key;    // function key in fns ("Class::Name" or "Name")
  std::string cls;    // class path for member resolution
  size_t depth = 0;   // scope-stack size at function open
  std::vector<HeldEntry> held;
  // Parameters and locals declared with a known class type -> class path.
  std::map<std::string, std::string> local_types;
};

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kLambda, kBlock } kind;
  std::string name;  // class name component for kClass
  int saved_paren = 0;
};

// multimap emplace that skips exact duplicates (a function seen at both
// its declaration and its definition must still resolve unique-by-name).
void EmplaceUnique(std::multimap<std::string, std::string>& mm,
                   const std::string& key, const std::string& value) {
  auto range = mm.equal_range(key);
  for (auto it = range.first; it != range.second; ++it)
    if (it->second == value) return;
  mm.emplace(key, value);
}

class Checker {
 public:
  ManifestData mf;
  std::vector<Finding> findings;

  // file -> line -> allowed finding ids.
  std::map<std::string, std::map<int, std::set<std::string>>> allows;

  std::set<std::string> classes;
  std::multimap<std::string, std::string> class_by_last;  // "RunContext" -> path
  // class path -> member -> lock name.
  std::map<std::string, std::map<std::string, std::string>> member_lock;
  std::multimap<std::string, std::string> member_lock_any;  // member -> lock
  // class path -> member -> member's class-path type.
  std::map<std::string, std::map<std::string, std::string>> member_type;
  std::map<std::string, FnInfo> fns;
  std::multimap<std::string, std::string> fn_by_last;  // "SaveOnce" -> key
  std::map<std::string, std::string> lock_fn;  // "LogMutex" -> lock name
  // rank symbol -> times seen declared in source.
  std::map<std::string, int> symbol_decls;
  // observed (outer, inner) -> first occurrence "file:line".
  std::map<std::pair<std::string, std::string>, std::string> observed;

  // Class-scope statements deferred until all class names are known
  // (member type inference needs the full class set).
  struct PendingMember {
    std::string cls, text, file;
    int line;
  };
  std::vector<PendingMember> pending_members;

  void Report(const std::string& file, int line, const std::string& id,
              const std::string& msg) {
    auto fit = allows.find(file);
    if (fit != allows.end()) {
      for (int l : {line, line - 1}) {
        auto lit = fit->second.find(l);
        if (lit != fit->second.end() && lit->second.count(id) != 0) return;
      }
    }
    findings.push_back({file, line, id, msg});
  }

  // --- Lock / callee resolution ------------------------------------------

  // Class path named by a type token ("RunContext", "ns::Walker"); "" when
  // no class, or more than one, has that name.
  std::string ClassPathOf(const std::string& type) const {
    if (classes.count(type) != 0) return type;
    auto range = class_by_last.equal_range(LastIdent(type));
    if (std::distance(range.first, range.second) == 1)
      return range.first->second;
    return "";
  }

  // Resolves a lock expression ("mu_", "service_->theory_mu_",
  // "LogMutex()", "run.mu") to a manifest lock name; "" when unknown.
  // `frames` (innermost last) supply the types of locals and parameters.
  std::string ResolveLockExpr(const std::string& expr, const std::string& cls,
                              const std::vector<Frame>* frames = nullptr) {
    std::string t = expr;
    while (!t.empty() && (t.back() == ' ' || t.back() == ')')) {
      if (t.back() == ')') {  // lock-returning function call
        std::string fn = LastIdent(t.substr(0, t.find_last_of('(')));
        auto it = lock_fn.find(fn);
        return it == lock_fn.end() ? "" : it->second;
      }
      t.pop_back();
    }
    const std::string member = LastIdent(t);
    if (member.empty()) return "";
    // A qualified member ("run.mu", "p->mu") is a lock of its base's class;
    // with the base's type unknown, only the enclosing classes may own it.
    const std::string base = QualifierBase(t, member);
    if (!base.empty()) {
      std::string type = LocalType(base, frames);
      if (type.empty()) type = ResolveMemberType(base, cls);
      if (!type.empty()) {
        auto cit = member_lock.find(type);
        if (cit == member_lock.end()) return "";
        auto mit = cit->second.find(member);
        return mit == cit->second.end() ? "" : mit->second;
      }
    }
    // Innermost class first, then enclosing classes, then (unqualified
    // members only) unique-anywhere.
    std::string c = cls;
    while (true) {
      auto cit = member_lock.find(c);
      if (cit != member_lock.end()) {
        auto mit = cit->second.find(member);
        if (mit != cit->second.end()) return mit->second;
      }
      size_t pos = c.rfind("::");
      if (pos == std::string::npos) break;
      c = c.substr(0, pos);
    }
    if (base.empty()) {
      auto range = member_lock_any.equal_range(member);
      if (std::distance(range.first, range.second) == 1)
        return range.first->second;
    }
    auto fit = lock_fn.find(member);
    if (fit != lock_fn.end()) return fit->second;
    return "";
  }

  // "x.mu", "(*x).mu", "p->mu" -> the base identifier; "" when `t` (which
  // ends with `member`) is unqualified or qualified by `this`.
  static std::string QualifierBase(const std::string& t,
                                   const std::string& member) {
    std::string prefix = t.substr(0, t.size() - member.size());
    while (!prefix.empty() && prefix.back() == ' ') prefix.pop_back();
    if (prefix.size() >= 2 && prefix.compare(prefix.size() - 2, 2, "->") == 0)
      prefix.resize(prefix.size() - 2);
    else if (!prefix.empty() && prefix.back() == '.')
      prefix.pop_back();
    else
      return "";
    const std::string base = LastIdent(prefix);
    return base == "this" ? "" : base;
  }

  static std::string LocalType(const std::string& name,
                               const std::vector<Frame>* frames) {
    if (frames == nullptr) return "";
    for (auto it = frames->rbegin(); it != frames->rend(); ++it) {
      auto lit = it->local_types.find(name);
      if (lit != it->local_types.end()) return lit->second;
    }
    return "";
  }

  // Records each `Type name`, `Type& name` or `Type* name` declaration in
  // `text` whose type is a known class.
  void CollectLocalTypes(const std::string& text,
                         std::map<std::string, std::string>* out) const {
    const size_t n = text.size();
    size_t i = 0;
    while (i < n) {
      if (!IsIdentChar(text[i]) ||
          (i > 0 && (IsIdentChar(text[i - 1]) || text[i - 1] == ':'))) {
        ++i;
        continue;
      }
      size_t end = i;  // the type token, with any :: qualification
      while (end < n && (IsIdentChar(text[end]) || text[end] == ':')) ++end;
      const std::string type = text.substr(i, end - i);
      i = end;
      if (ClassPathOf(type).empty()) continue;
      size_t j = end;
      while (j < n && (std::isspace(static_cast<unsigned char>(text[j])) ||
                       text[j] == '&' || text[j] == '*'))
        ++j;
      if (j == end || j == n || !IsIdentChar(text[j]) ||
          std::isdigit(static_cast<unsigned char>(text[j])))
        continue;
      size_t name_end = j;
      while (name_end < n && IsIdentChar(text[name_end])) ++name_end;
      size_t after = name_end;
      while (after < n && std::isspace(static_cast<unsigned char>(text[after])))
        ++after;
      // A statement arrives without its ';'.
      if (after == n || std::strchr(",=({)[", text[after]) != nullptr)
        (*out)[text.substr(j, name_end - j)] = ClassPathOf(type);
    }
  }

  // Member variable -> class-path type, innermost class first.
  std::string ResolveMemberType(const std::string& member,
                                const std::string& cls) {
    std::string c = cls;
    while (true) {
      auto cit = member_type.find(c);
      if (cit != member_type.end()) {
        auto mit = cit->second.find(member);
        if (mit != cit->second.end()) return mit->second;
      }
      size_t pos = c.rfind("::");
      if (pos == std::string::npos) break;
      c = c.substr(0, pos);
    }
    // Unique member name across all classes.
    std::string found;
    for (const auto& [cpath, members] : member_type) {
      auto mit = members.find(member);
      if (mit != members.end()) {
        if (!found.empty()) return "";
        found = mit->second;
      }
    }
    return found;
  }

  // Function key lookup: exact, then unique-by-last-component.
  std::string ResolveFn(const std::string& cls, const std::string& name) {
    if (!cls.empty()) {
      std::string c = cls;
      while (true) {
        const std::string key = c + "::" + name;
        if (fns.count(key) != 0) return key;
        size_t pos = c.rfind("::");
        if (pos == std::string::npos) break;
        c = c.substr(0, pos);
      }
    }
    if (fns.count(name) != 0) return name;
    auto range = fn_by_last.equal_range(name);
    if (std::distance(range.first, range.second) == 1)
      return range.first->second;
    return "";
  }
};

}  // namespace

namespace {

// ---------------------------------------------------------------------------
// Suppression markers, read from the raw text (they live in comments).

// Every finding id either pass reports; an allow marker naming anything
// else is a "bad-allow".
const std::set<std::string> kFindingIds = {
    "naked-mutex", "naked-lock", "naked-condvar", "raw-lock-call",
    "detached-thread", "sync-include", "missing-sync-include", "bad-allow",
    "unranked-mutex", "unknown-rank-symbol", "missing-declaration",
    "duplicate-rank-symbol", "bad-manifest-edge", "unresolved-lock",
    "rank-inversion", "undeclared-edge", "excludes-violation",
    "excludes-annotation-violation", "cycle", "doc-mismatch"};

const std::regex kAllowRe(
    R"(deadlockcheck:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\))");
const std::regex kAllowIdRe(R"([a-z-]+)");

void CollectAllows(Checker& ck, const std::string& file,
                   const std::string& text) {
  int line = 1;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string l = text.substr(start, end - start);
    std::smatch m;
    if (std::regex_search(l, m, kAllowRe)) {
      const std::string list = m[1];
      for (auto it = std::sregex_iterator(list.begin(), list.end(),
                                          kAllowIdRe);
           it != std::sregex_iterator(); ++it) {
        const std::string id = it->str();
        ck.allows[file][line].insert(id);
        if (kFindingIds.count(id) == 0)
          ck.Report(file, line, "bad-allow",
                    "unknown finding id '" + id + "'");
      }
    }
    start = end + 1;
    ++line;
  }
}

// ---------------------------------------------------------------------------
// Normalization: comments and string/char literals are blanked (newlines
// kept so line numbers survive), and so are preprocessor lines unless
// `keep_directives`; [[...]] attributes are erased; `{lockrank::kX}`
// brace-initializers become `(lockrank::kX)` so the chunker below does
// not mistake them for scopes. Length-preserving.

std::string Normalize(const std::string& in,
                      bool keep_directives = false) {
  std::string out = in;
  enum { kCode, kLine, kBlock, kStr, kChar, kRaw } st = kCode;
  std::string raw_delim;
  for (size_t i = 0; i < out.size(); ++i) {
    char c = out[i];
    char n = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (st) {
      case kCode:
        if (c == '/' && n == '/') { st = kLine; out[i] = ' '; }
        else if (c == '/' && n == '*') { st = kBlock; out[i] = ' '; }
        else if (c == '"') {
          // Raw string literal R"delim( ... )delim".
          if (i > 0 && out[i - 1] == 'R') {
            size_t p = out.find('(', i);
            if (p != std::string::npos) {
              raw_delim = ")" + out.substr(i + 1, p - i - 1) + "\"";
              st = kRaw;
              out[i - 1] = ' ';
            }
          } else {
            st = kStr;
          }
          out[i] = ' ';
        }
        else if (c == '\'') { st = kChar; out[i] = ' '; }
        else if (c == '#' && !keep_directives &&
                 (i == 0 || out[i - 1] == '\n')) { st = kLine; out[i] = ' '; }
        break;
      case kLine:
        if (c == '\n') {
          // A trailing backslash continues the (preprocessor) line.
          size_t b = i;
          while (b > 0 && (out[b - 1] == ' ' || out[b - 1] == '\r')) --b;
          if (!(b > 0 && out[b - 1] == '\\')) st = kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case kBlock:
        if (c == '*' && n == '/') { out[i] = ' '; out[i + 1] = ' '; ++i; st = kCode; }
        else if (c != '\n') out[i] = ' ';
        break;
      case kStr:
        if (c == '\\') { out[i] = ' '; if (n != '\n') { out[i + 1] = ' '; ++i; } }
        else if (c == '"') { out[i] = ' '; st = kCode; }
        else if (c != '\n') out[i] = ' ';
        break;
      case kChar:
        if (c == '\\') { out[i] = ' '; if (n != '\n') { out[i + 1] = ' '; ++i; } }
        else if (c == '\'') { out[i] = ' '; st = kCode; }
        else if (c != '\n') out[i] = ' ';
        break;
      case kRaw:
        if (out.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = 0; k < raw_delim.size(); ++k) out[i + k] = ' ';
          i += raw_delim.size() - 1;
          st = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  // [[...]] attributes.
  for (size_t p = out.find("[["); p != std::string::npos;
       p = out.find("[[", p)) {
    size_t e = out.find("]]", p);
    if (e == std::string::npos) break;
    for (size_t k = p; k < e + 2; ++k)
      if (out[k] != '\n') out[k] = ' ';
    p = e + 2;
  }
  // {lockrank::kX} -> (lockrank::kX).
  static const std::regex kBraceInit(R"(\{\s*lockrank::\w+\s*\})");
  auto begin = std::sregex_iterator(out.begin(), out.end(), kBraceInit);
  std::vector<std::pair<size_t, size_t>> spans;
  for (auto it = begin; it != std::sregex_iterator(); ++it)
    spans.emplace_back(it->position(), it->length());
  for (auto [pos, len] : spans) {
    out[pos] = '(';
    out[pos + len - 1] = ')';
  }
  return out;
}

// Rank values by symbol: every `kName = <int>` constant in the rank
// table's code (comments blanked). Empty when the file is unreadable.
std::map<std::string, int> ReadRanks(const std::string& path) {
  std::map<std::string, int> ranks;
  auto text = ReadFileToString(path);
  if (!text) return ranks;
  static const std::regex kRankDef(R"(\b(k\w+)\s*=\s*(-?\d+))");
  const std::string code = Normalize(*text);
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kRankDef);
       it != std::sregex_iterator(); ++it)
    ranks[(*it)[1]] = std::stoi((*it)[2]);
  return ranks;
}

// ---------------------------------------------------------------------------
// Lint pass.

struct LintRule {
  const char* id;
  std::regex pattern;
  const char* msg;
};

const LintRule kLintRules[] = {
    {"naked-mutex",
     std::regex(
         R"(\bstd::(recursive_|timed_|shared_|shared_timed_)?mutex\b)"),
     "raw std::mutex family; use mergepurge::Mutex/SharedMutex "
     "(util/sync.h)"},
    {"naked-lock",
     std::regex(
         R"(\bstd::(lock_guard|unique_lock|shared_lock|scoped_lock)\b)"),
     "raw std lock scope; use MutexLock/ReaderLock/WriterLock "
     "(util/sync.h)"},
    {"naked-condvar", std::regex(R"(\bstd::condition_variable(_any)?\b)"),
     "raw std::condition_variable; use mergepurge::CondVar (util/sync.h)"},
    {"raw-lock-call",
     std::regex(
         R"((\.|->)\s*(lock|unlock|try_lock|lock_shared|unlock_shared)\s*\(\s*\))"),
     "bare lock()/unlock() call; use the scoped types or the annotated "
     "Lock()/Unlock() members"},
    {"detached-thread", std::regex(R"(\.\s*detach\s*\(\s*\))"),
     "detached thread; join it, or allow it with a comment saying why it "
     "must outlive its owner"},
    {"sync-include",
     std::regex(
         R"(#\s*include\s*<(mutex|shared_mutex|condition_variable)>)"),
     "raw sync header; include \"util/sync.h\" instead"},
};

// `code` is Normalize(text, /*keep_directives=*/true).
void LintFile(Checker& ck, const std::string& file, const std::string& code) {
  int line = 1;
  for (size_t start = 0; start < code.size(); ++line) {
    size_t end = code.find('\n', start);
    if (end == std::string::npos) end = code.size();
    const std::string l = code.substr(start, end - start);
    for (const LintRule& rule : kLintRules) {
      if (std::regex_search(l, rule.pattern))
        ck.Report(file, line, rule.id, rule.msg);
    }
    start = end + 1;
  }
}

// Lock-owning service and introspection sources that must stay inside the
// annotated sync vocabulary: each includes util/sync.h, directly or (a .cc)
// through its paired same-directory header.
const char* const kMustIncludeSync[] = {
    "src/service/wal.h",           "src/service/wal.cc",
    "src/service/snapshot.h",      "src/service/snapshot.cc",
    "src/service/match_service.h", "src/service/match_service.cc",
    "src/service/server.h",        "src/service/server.cc",
    "src/obs/window.h",            "src/obs/window.cc",
    "src/shard/coordinator.h",     "src/shard/coordinator.cc"};

// True if `rel` includes util/sync.h directly, or through a project
// include that resolves into its own directory (wal.cc -> service/wal.h).
bool IncludesSync(const std::string& root, const std::string& rel,
                  std::set<std::string>* seen) {
  if (!seen->insert(rel).second) return false;
  auto text = ReadFileToString(root + "/" + rel);
  if (!text) return false;
  static const std::regex kInclude(R"re(#\s*include\s*"([^"]+)")re");
  const std::string dir = fs::path(rel).parent_path().generic_string();
  for (auto it = std::sregex_iterator(text->begin(), text->end(), kInclude);
       it != std::sregex_iterator(); ++it) {
    const std::string included = (*it)[1];
    if (included == "util/sync.h") return true;
    const std::string candidate = "src/" + included;
    if (fs::path(candidate).parent_path().generic_string() == dir &&
        IncludesSync(root, candidate, seen))
      return true;
  }
  return false;
}

void CheckSyncIncludes(Checker& ck, const std::string& root) {
  for (const char* rel : kMustIncludeSync) {
    std::error_code ec;
    if (!fs::is_regular_file(fs::path(root) / rel, ec)) continue;
    std::set<std::string> seen;
    if (!IncludesSync(root, rel, &seen)) {
      ck.Report(rel, 1, "missing-sync-include",
                "lock-owning source must include \"util/sync.h\" (directly "
                "or via its paired header)");
    }
  }
}

// ---------------------------------------------------------------------------
// Scanner.

const std::set<std::string> kKeywords = {
    "if", "else", "for", "while", "switch", "do", "return", "new", "delete",
    "sizeof", "alignof", "alignas", "static_cast", "dynamic_cast",
    "const_cast", "reinterpret_cast", "catch", "try", "throw", "case",
    "default", "template", "typename", "using", "namespace", "operator",
    "assert", "static_assert", "decltype", "noexcept", "constexpr", "const",
    "struct", "class", "enum", "break", "continue", "goto", "public",
    "private", "protected", "virtual", "override", "final", "inline",
    "static", "void", "bool", "char", "int", "unsigned", "long", "short",
    "float", "double", "auto", "size_t", "uint64_t", "int64_t", "uint32_t",
    "int32_t", "uint8_t", "lockrank", "explicit", "mutable", "defined",
    "Lock", "Unlock", "LockShared", "UnlockShared", "TryLock", "Wait",
    "Mutex", "SharedMutex", "CondVar"};

const std::regex kClassRe(R"((class|struct)\s+([A-Za-z_][\w:]*))");
const std::regex kControlRe(R"(^\s*(if|else|for|while|switch|do|try|catch)\b)");
// Capture lists may contain one level of nested brackets, e.g.
// `[this, call = &(*calls)[i]]`.
const std::regex kLambdaRe(R"(\[(?:[^\[\]]|\[[^\[\]]*\])*\]\s*[\(\{]?\s*$)");
const std::regex kLambdaParamRe(R"(\[(?:[^\[\]]|\[[^\[\]]*\])*\]\s*\()");
const std::regex kMutexHit(R"(\b(Mutex|SharedMutex)\b)");
const std::regex kLockrankSym(R"(lockrank::(\w+))");
const std::regex kNewMutex(R"(new\s+(Mutex|SharedMutex)\s*\()");
const std::regex kRawLockCall(
    R"(((?:\w+(?:::|\.|->))*\w+)(?:\.|->)(Lock|LockShared|Unlock|UnlockShared|TryLock)\s*\()");
const std::regex kCallRe(R"((\w+)\s*\()");
const std::regex kMacroRe(R"(MERGEPURGE_([A-Z_]+)\s*\()");
const std::regex kCtorStyleRe(R"(^\s*(?:const\s+)?([A-Za-z_][\w:]*)\s+(\w+)\s*\()");

std::string Trimmed(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Identifier (possibly qualified, '~' stripped) ending right before `pos`.
std::string QualifiedIdentBefore(const std::string& s, size_t pos) {
  int end = static_cast<int>(pos);
  while (end > 0 && std::isspace(static_cast<unsigned char>(s[end - 1])))
    --end;
  int begin = end;
  while (begin > 0 && (IsIdentChar(s[begin - 1]) || s[begin - 1] == ':' ||
                       s[begin - 1] == '~'))
    --begin;
  std::string out = s.substr(begin, end - begin);
  out.erase(std::remove(out.begin(), out.end(), '~'), out.end());
  while (!out.empty() && out.front() == ':') out.erase(out.begin());
  return out;
}

struct MacroHit {
  std::string kind;  // "REQUIRES", "ACQUIRE", "EXCLUDES", ...
  std::vector<std::string> args;  // last-identifier of each argument
};

// Extracts MERGEPURGE_* macro invocations and blanks them out of `s`.
std::vector<MacroHit> ExtractMacros(std::string* s) {
  std::vector<MacroHit> hits;
  std::smatch m;
  std::string& text = *s;
  size_t search = 0;
  while (true) {
    const std::string tail = text.substr(search);
    if (!std::regex_search(tail, m, kMacroRe)) break;
    const size_t at = search + m.position(0);
    const size_t open = search + m.position(0) + m.length(0) - 1;
    const std::string body = BalancedParens(text, open);
    MacroHit hit;
    hit.kind = m[1];
    for (const std::string& arg : SplitTopLevelCommas(body)) {
      const std::string id = LastIdent(arg);
      if (!id.empty()) hit.args.push_back(id);
    }
    const size_t close = open + body.size() + 2;
    for (size_t k = at; k < close && k < text.size(); ++k) text[k] = ' ';
    hits.push_back(std::move(hit));
    search = close;
  }
  return hits;
}

class FileScanner {
 public:
  FileScanner(Checker& ck, std::string file, const std::string& text,
              int pass, const std::regex& scoped_re)
      : ck_(ck), file_(std::move(file)), text_(text), pass_(pass),
        scoped_re_(scoped_re) {}

  void Run() {
    int line = 1, chunk_line = 1, paren = 0;
    std::string chunk;
    for (size_t i = 0; i < text_.size(); ++i) {
      const char c = text_[i];
      if (c == '\n') { ++line; chunk.push_back(' '); continue; }
      if (c == '(') ++paren;
      if (c == ')') --paren;
      if (c == ';' && paren == 0) {
        Statement(chunk, chunk_line);
        chunk.clear();
        chunk_line = line;
        continue;
      }
      if (c == '{') {
        Open(chunk, chunk_line, paren);
        paren = 0;
        chunk.clear();
        chunk_line = line;
        continue;
      }
      if (c == '}') {
        if (!Trimmed(chunk).empty()) Statement(chunk, chunk_line);
        chunk.clear();
        chunk_line = line;
        if (!scopes_.empty()) {
          paren = scopes_.back().saved_paren;
          Close();
        }
        continue;
      }
      if (Trimmed(chunk).empty() && !std::isspace(static_cast<unsigned char>(c)))
        chunk_line = line;
      chunk.push_back(c);
    }
  }

 private:
  std::string ClassPath() const {
    std::string out;
    for (const Scope& s : scopes_) {
      if (s.kind != Scope::kClass) continue;
      if (!out.empty()) out += "::";
      out += s.name;
    }
    return out;
  }

  void Open(const std::string& header, int line, int paren) {
    Scope scope;
    scope.saved_paren = paren;
    const std::string h = Trimmed(header);
    // Truncate at the base-clause ':' (not '::') for classification.
    std::string head = h;
    for (size_t i = 0; i < head.size(); ++i) {
      if (head[i] != ':') continue;
      if ((i + 1 < head.size() && head[i + 1] == ':') ||
          (i > 0 && head[i - 1] == ':')) continue;
      head = head.substr(0, i);
      break;
    }
    std::smatch m;
    const bool is_enum = std::regex_search(head, m, std::regex(R"(\benum\b)"));
    std::string no_alignas =
        std::regex_replace(head, std::regex(R"(alignas\s*\([^)]*\))"), " ");
    if (!is_enum && std::regex_search(head, m, std::regex(R"(\bnamespace\b)")) &&
        head.find('(') == std::string::npos) {
      scope.kind = Scope::kNamespace;
    } else if (!is_enum && no_alignas.find('(') == std::string::npos &&
               LastClassName(no_alignas, &scope.name)) {
      scope.kind = Scope::kClass;
    } else if (std::regex_search(h, m, kLambdaParamRe) ||
               std::regex_search(h, m, kLambdaRe)) {
      scope.kind = Scope::kLambda;
      if (pass_ == 2) PushLambdaFrame(line);
    } else if (std::regex_search(h, m, kControlRe) || is_enum) {
      scope.kind = Scope::kBlock;
    } else if (h.find('(') != std::string::npos) {
      const std::string name = QualifiedIdentBefore(h, h.find('('));
      // `x.f(...) {` headers are call expressions (usually a lambda argument
      // whose capture list defeated the lambda regexes), not definitions.
      int end = static_cast<int>(h.find('('));
      while (end > 0 && std::isspace(static_cast<unsigned char>(h[end - 1])))
        --end;
      int begin = end;
      while (begin > 0 && (IsIdentChar(h[begin - 1]) || h[begin - 1] == ':' ||
                           h[begin - 1] == '~'))
        --begin;
      const bool method_call =
          begin > 0 && (h[begin - 1] == '.' ||
                        (begin > 1 && h[begin - 2] == '-' && h[begin - 1] == '>'));
      if (name.empty() || kKeywords.count(name) != 0 || method_call) {
        scope.kind = Scope::kBlock;
      } else {
        scope.kind = Scope::kFunction;
        FunctionOpen(h, name, line);
      }
    } else {
      scope.kind = Scope::kBlock;
    }
    scopes_.push_back(scope);
    if (scope.kind == Scope::kClass && pass_ == 1) {
      const std::string path = ClassPath();
      ck_.classes.insert(path);
      EmplaceUnique(ck_.class_by_last, LastIdent(scope.name), path);
    }
  }

  static bool LastClassName(const std::string& head, std::string* name) {
    auto begin = std::sregex_iterator(head.begin(), head.end(), kClassRe);
    std::string last;
    for (auto it = begin; it != std::sregex_iterator(); ++it)
      last = (*it)[2];
    if (last.empty()) return false;
    *name = last;
    return true;
  }

  void FunctionOpen(const std::string& header, const std::string& name,
                    int /*line*/) {
    const std::string cls = ClassPath();
    std::string key;
    if (!cls.empty()) key = cls + "::" + name;
    else key = name;
    // Ctors/dtors collapse ("TheoryLease::TheoryLease" and the dtor share
    // a record); that is intentional — their acquisitions pool.
    std::string fn_cls = key;
    const size_t pos = fn_cls.rfind("::");
    fn_cls = pos == std::string::npos ? "" : fn_cls.substr(0, pos);
    if (pass_ == 1) {
      FnInfo& fn = ck_.fns[key];
      fn.cls = fn_cls;
      EmplaceUnique(ck_.fn_by_last, LastIdent(name), key);
      last_fn_key_ = key;
      std::string text = header;
      for (const MacroHit& hit : ExtractMacros(&text)) Annotate(&fn, hit);
    } else {
      frames_.emplace_back();
      Frame& frame = frames_.back();
      frame.key = key;
      frame.cls = fn_cls;
      frame.depth = scopes_.size() + 1;
      ck_.CollectLocalTypes(header, &frame.local_types);
      auto it = ck_.fns.find(key);
      if (it != ck_.fns.end()) {
        for (const std::string& member : it->second.requires_raw) {
          const std::string lock =
              ck_.ResolveLockExpr(member, fn_cls, &frames_);
          if (!lock.empty())
            frame.held.push_back({lock, "", frame.depth, true});
        }
      }
    }
  }

  void PushLambdaFrame(int line) {
    // A lambda body is analyzed as its own anonymous function: its
    // acquisitions are checked in isolation, but it is unreachable
    // through the call graph (callbacks run on unknown threads — the
    // runtime validator owns those orderings).
    Frame frame;
    frame.key = file_ + ":" + std::to_string(line) + ":lambda";
    frame.cls = ClassPath().empty() && !frames_.empty() ? frames_.back().cls
                                                        : ClassPath();
    frame.depth = scopes_.size() + 1;
    ck_.fns[frame.key].cls = frame.cls;
    frames_.push_back(std::move(frame));
  }

  static void Annotate(FnInfo* fn, const MacroHit& hit) {
    if (hit.kind == "REQUIRES" || hit.kind == "REQUIRES_SHARED") {
      fn->requires_raw.insert(fn->requires_raw.end(), hit.args.begin(),
                              hit.args.end());
    } else if (hit.kind == "ACQUIRE" || hit.kind == "ACQUIRE_SHARED") {
      fn->acquires_raw.insert(fn->acquires_raw.end(), hit.args.begin(),
                              hit.args.end());
    } else if (hit.kind == "EXCLUDES") {
      fn->excludes_raw.insert(fn->excludes_raw.end(), hit.args.begin(),
                              hit.args.end());
    }
  }

  void Close() {
    const size_t size = scopes_.size();
    if (!frames_.empty()) {
      if (frames_.back().depth == size) {
        frames_.pop_back();
      } else {
        auto& held = frames_.back().held;
        held.erase(std::remove_if(held.begin(), held.end(),
                                  [size](const HeldEntry& e) {
                                    return e.depth >= size;
                                  }),
                   held.end());
      }
    }
    scopes_.pop_back();
  }

  // --- Statements ---------------------------------------------------------

  void Statement(const std::string& raw, int line) {
    if (pass_ == 1) {
      if (!scopes_.empty() && scopes_.back().kind == Scope::kClass) {
        ClassStatement(raw, line);
      } else if (InFunction()) {
        FunctionScopeDecls(raw, line);
      }
      return;
    }
    if (!frames_.empty()) BodyStatement(raw, line);
  }

  bool InFunction() const {
    for (const Scope& s : scopes_)
      if (s.kind == Scope::kFunction || s.kind == Scope::kLambda) return true;
    return false;
  }

  // Pass 1, class scope: mutex members, member types, method annotations.
  void ClassStatement(const std::string& raw, int line) {
    const std::string cls = ClassPath();
    std::string text = raw;
    std::vector<MacroHit> macros = ExtractMacros(&text);
    bool was_mutex_decl = false;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), kMutexHit);
         it != std::sregex_iterator(); ++it) {
      size_t after = it->position(0) + it->length(0);
      while (after < text.size() &&
             std::isspace(static_cast<unsigned char>(text[after])))
        ++after;
      if (after < text.size() && (text[after] == '*' || text[after] == '&'))
        continue;  // pointer/ref member or Mutex&-returning accessor
      size_t end = after;
      while (end < text.size() && IsIdentChar(text[end])) ++end;
      const std::string member = text.substr(after, end - after);
      if (member.empty()) continue;
      was_mutex_decl = true;
      RegisterMutexDecl(cls, member, raw, line);
    }
    if (was_mutex_decl) return;
    if (text.find('(') != std::string::npos) {
      const std::string name = QualifiedIdentBefore(text, text.find('('));
      if (name.empty() || kKeywords.count(name) != 0) return;
      const std::string key = cls.empty() ? name : cls + "::" + name;
      FnInfo& fn = ck_.fns[key];
      fn.cls = cls;
      EmplaceUnique(ck_.fn_by_last, LastIdent(name), key);
      for (const MacroHit& hit : macros) Annotate(&fn, hit);
    } else {
      ck_.pending_members.push_back({cls, text, file_, line});
    }
  }

  void RegisterMutexDecl(const std::string& cls, const std::string& member,
                         const std::string& stmt, int line) {
    std::smatch m;
    if (!std::regex_search(stmt, m, kLockrankSym) || m[1] == "kUnranked") {
      ck_.Report(file_, line, "unranked-mutex",
                 "Mutex '" + cls + "::" + member +
                     "' has no lockrank:: rank; every lock must join the "
                     "hierarchy in tools/lock_hierarchy.json");
      return;
    }
    const std::string symbol = m[1];
    auto it = ck_.mf.name_by_symbol.find(symbol);
    if (it == ck_.mf.name_by_symbol.end()) {
      ck_.Report(file_, line, "unknown-rank-symbol",
                 "lockrank::" + symbol + " (on " + cls + "::" + member +
                     ") is not in the manifest");
      return;
    }
    const std::string derived = cls + "::" + member;
    if (it->second != derived) {
      ck_.Report(file_, line, "missing-declaration",
                 "manifest names lockrank::" + symbol + " '" + it->second +
                     "' but the declaration is '" + derived + "'");
    }
    ++ck_.symbol_decls[symbol];
    ck_.member_lock[cls][member] = it->second;
    EmplaceUnique(ck_.member_lock_any, member, it->second);
  }

  // Pass 1, function scope: `new Mutex(lockrank::kX)` registers the
  // enclosing function as lock-returning (the leaked-singleton idiom).
  void FunctionScopeDecls(const std::string& raw, int line) {
    std::smatch m;
    if (!std::regex_search(raw, m, kNewMutex)) return;
    std::smatch sym;
    if (!std::regex_search(raw, sym, kLockrankSym) || sym[1] == "kUnranked") {
      ck_.Report(file_, line, "unranked-mutex",
                 "new Mutex without a lockrank:: rank");
      return;
    }
    auto it = ck_.mf.name_by_symbol.find(sym[1]);
    if (it == ck_.mf.name_by_symbol.end()) {
      ck_.Report(file_, line, "unknown-rank-symbol",
                 "lockrank::" + std::string(sym[1]) + " is not in the manifest");
      return;
    }
    ++ck_.symbol_decls[sym[1]];
    // The leaked singleton lives in whichever function's body declares it
    // (e.g. LogMutex()); callers acquire it through that function's name.
    if (!last_fn_key_.empty())
      ck_.lock_fn[LastIdent(last_fn_key_)] = it->second;
  }

  // --- Pass 2: body analysis ---------------------------------------------

  std::vector<std::string> HeldNames(const Frame& frame) const {
    std::vector<std::string> out;
    for (const HeldEntry& e : frame.held) {
      if (!e.active) continue;
      if (std::find(out.begin(), out.end(), e.lock) == out.end())
        out.push_back(e.lock);
    }
    return out;
  }

  void RecordAcquire(Frame& frame, const std::string& lock,
                     const std::string& var, int line, bool event = true) {
    FnInfo& fn = ck_.fns[frame.key];
    if (event) {
      const std::vector<std::string> held = HeldNames(frame);
      if (!held.empty())
        fn.events.push_back({file_, line, held, lock, false});
      fn.direct.insert(lock);
    }
    frame.held.push_back({lock, var, scopes_.size(), true});
  }

  void RecordCall(Frame& frame, const std::string& callee, int line) {
    if (callee.empty() || callee == frame.key) return;
    FnInfo& fn = ck_.fns[frame.key];
    fn.calls.insert(callee);
    const std::vector<std::string> held = HeldNames(frame);
    if (!held.empty()) fn.events.push_back({file_, line, held, callee, true});
  }

  void BodyStatement(const std::string& raw, int line) {
    Frame& frame = frames_.back();
    const std::string& cls = frame.cls;
    std::set<size_t> consumed;  // call-regex positions already handled
    ck_.CollectLocalTypes(raw, &frame.local_types);

    if (raw.find("MERGEPURGE_LOG") != std::string::npos)
      RecordCall(frame, ck_.ResolveFn("", "LogMessage"), line);

    // Scoped RAII acquisitions: MutexLock/WriterLock/ReaderLock plus the
    // manifest's scoped_types.
    for (auto it = std::sregex_iterator(raw.begin(), raw.end(), scoped_re_);
         it != std::sregex_iterator(); ++it) {
      const std::string type = (*it)[1];
      const std::string var = (*it)[2];
      const size_t open = it->position(0) + it->length(0) - 1;
      consumed.insert(it->position(0));
      std::string lock;
      auto st = ck_.mf.scoped_lock.find(type);
      if (st != ck_.mf.scoped_lock.end()) {
        lock = st->second;
      } else {
        const std::string expr = BalancedParens(raw, open);
        lock = ck_.ResolveLockExpr(expr, cls, &frames_);
        if (lock.empty()) {
          ck_.Report(file_, line, "unresolved-lock",
                     type + " " + var + "(" + Trimmed(expr) +
                         "): cannot resolve the lock expression");
          continue;
        }
      }
      RecordAcquire(frame, lock, var, line);
    }

    // Raw .Lock()/.Unlock() calls, and scoped-variable relock toggles.
    for (auto it = std::sregex_iterator(raw.begin(), raw.end(), kRawLockCall);
         it != std::sregex_iterator(); ++it) {
      const std::string expr = (*it)[1];
      const std::string method = (*it)[2];
      consumed.insert(it->position(0));
      // Scoped-lock variable toggle?
      bool toggled = false;
      if (expr.find('.') == std::string::npos &&
          expr.find("->") == std::string::npos) {
        for (auto hit = frame.held.rbegin(); hit != frame.held.rend(); ++hit) {
          if (hit->var != expr || hit->var.empty()) continue;
          if (method == "Unlock" || method == "UnlockShared")
            hit->active = false;
          else
            hit->active = true;
          toggled = true;
          break;
        }
      }
      if (toggled) continue;
      const std::string lock = ck_.ResolveLockExpr(expr, cls, &frames_);
      if (lock.empty()) {
        ck_.Report(file_, line, "unresolved-lock",
                   expr + "." + method + "(): cannot resolve the lock");
        continue;
      }
      if (method == "Lock" || method == "LockShared") {
        RecordAcquire(frame, lock, "", line);
      } else if (method == "TryLock") {
        // Non-blocking: held afterwards, but no ordering obligation.
        RecordAcquire(frame, lock, "", line, /*event=*/false);
      } else {
        for (auto hit = frame.held.rbegin(); hit != frame.held.rend(); ++hit) {
          if (hit->lock == lock && hit->var.empty()) {
            frame.held.erase(std::next(hit).base());
            break;
          }
        }
      }
    }

    // Constructor-style RAII ("TheoryLease theory(this);").
    std::smatch ctor;
    if (std::regex_search(raw, ctor, kCtorStyleRe)) {
      const std::string type = ctor[1];
      const std::string last = LastIdent(type);
      if (kKeywords.count(last) == 0 &&
          ck_.mf.scoped_lock.count(last) == 0 && last != "MutexLock" &&
          last != "WriterLock" && last != "ReaderLock") {
        const std::string cls_path = ck_.ClassPathOf(type);
        if (!cls_path.empty()) {
          const std::string key = cls_path + "::" + LastIdent(cls_path);
          if (ck_.fns.count(key) != 0) RecordCall(frame, key, line);
        }
      }
    }

    // General calls.
    for (auto it = std::sregex_iterator(raw.begin(), raw.end(), kCallRe);
         it != std::sregex_iterator(); ++it) {
      const size_t at = it->position(1);
      if (consumed.count(it->position(0)) != 0) continue;
      const std::string tok = (*it)[1];
      if (kKeywords.count(tok) != 0 || tok.rfind("MERGEPURGE_", 0) == 0 ||
          tok == "MutexLock" || tok == "WriterLock" || tok == "ReaderLock" ||
          ck_.mf.scoped_lock.count(tok) != 0)
        continue;
      std::string callee;
      size_t before = at;
      while (before > 0 &&
             std::isspace(static_cast<unsigned char>(raw[before - 1])))
        --before;
      if (before >= 2 && raw[before - 1] == ':' && raw[before - 2] == ':') {
        const std::string qual =
            QualifiedIdentBefore(raw, at + tok.size());
        if (ck_.fns.count(qual) != 0) callee = qual;
      } else if (before >= 1 &&
                 (raw[before - 1] == '.' ||
                  (before >= 2 && raw[before - 2] == '-' &&
                   raw[before - 1] == '>'))) {
        const size_t recv_end =
            raw[before - 1] == '.' ? before - 1 : before - 2;
        size_t b = recv_end;
        while (b > 0 && std::isspace(static_cast<unsigned char>(raw[b - 1])))
          --b;
        if (b > 0 && raw[b - 1] == ')') {
          callee = ck_.ResolveFn("", tok);  // chained: unique-by-name
        } else {
          const std::string recv =
              LastIdent(raw.substr(0, recv_end));
          const std::string type = ck_.ResolveMemberType(recv, cls);
          callee = !type.empty() ? ck_.ResolveFn(type, tok)
                                 : ck_.ResolveFn("", tok);
        }
      } else {
        callee = ck_.ResolveFn(cls, tok);
      }
      if (!callee.empty()) RecordCall(frame, callee, line);
    }
  }

  Checker& ck_;
  std::string file_;
  const std::string& text_;
  int pass_;
  const std::regex& scoped_re_;
  std::vector<Scope> scopes_;
  std::vector<Frame> frames_;

 public:
  // Pass 1 tracks the most recent function header so that function-scope
  // `new Mutex(...)` declarations attribute to it (see FunctionScopeDecls).
  std::string last_fn_key_;
};

}  // namespace

namespace {

// ---------------------------------------------------------------------------
// Analysis over the collected model.

void ResolvePendingMembers(Checker& ck) {
  for (const auto& pm : ck.pending_members) {
    std::string text = pm.text.substr(0, pm.text.find('='));
    const std::string member = LastIdent(text);
    if (member.empty() || kKeywords.count(member) != 0) continue;
    // First identifier token that names a known class is the member's type
    // ("std::unique_ptr<WalWriter> wal_" -> WalWriter).
    static const std::regex ident_re(R"([A-Za-z_]\w*)");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), ident_re);
         it != std::sregex_iterator(); ++it) {
      const std::string tok = it->str();
      if (tok == member || kKeywords.count(tok) != 0) continue;
      const std::string path = ck.ClassPathOf(tok);
      if (!path.empty()) {
        ck.member_type[pm.cls][member] = path;
        break;
      }
    }
  }
}

void CheckSymbolCoverage(Checker& ck, const std::string& manifest_path) {
  for (const LockDef& def : ck.mf.locks) {
    const int n = ck.symbol_decls.count(def.rank_symbol) != 0
                      ? ck.symbol_decls[def.rank_symbol]
                      : 0;
    if (n == 0) {
      ck.Report(manifest_path, 1, "missing-declaration",
                "manifest lock '" + def.name + "' (lockrank::" +
                    def.rank_symbol + ") has no declaration in the source");
    } else if (n > 1) {
      ck.Report(manifest_path, 1, "duplicate-rank-symbol",
                "lockrank::" + def.rank_symbol + " is used by " +
                    std::to_string(n) + " declarations; ranks are per-lock");
    }
  }
}

void ComputeTransitiveAcquires(Checker& ck) {
  for (auto& [key, fn] : ck.fns) {
    for (const std::string& member : fn.acquires_raw) {
      const std::string lock = ck.ResolveLockExpr(member, fn.cls);
      if (!lock.empty()) fn.direct.insert(lock);
    }
    fn.trans = fn.direct;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [key, fn] : ck.fns) {
      for (const std::string& callee : fn.calls) {
        auto it = ck.fns.find(callee);
        if (it == ck.fns.end()) continue;
        for (const std::string& lock : it->second.trans) {
          if (fn.trans.insert(lock).second) changed = true;
        }
      }
    }
  }
}

void CheckEvents(Checker& ck) {
  std::set<std::string> seen;  // "<id>|<outer>|<inner>" dedupe
  auto once = [&seen](const std::string& id, const std::string& h,
                      const std::string& a) {
    return seen.insert(id + "|" + h + "|" + a).second;
  };
  for (auto& [key, fn] : ck.fns) {
    for (const FnEvent& ev : fn.events) {
      std::vector<std::string> targets;
      if (ev.is_call) {
        auto it = ck.fns.find(ev.target);
        if (it == ck.fns.end()) continue;
        targets.assign(it->second.trans.begin(), it->second.trans.end());
        for (const std::string& member : it->second.excludes_raw) {
          const std::string lock =
              ck.ResolveLockExpr(member, it->second.cls);
          if (lock.empty()) continue;
          if (std::find(ev.held.begin(), ev.held.end(), lock) !=
                  ev.held.end() &&
              once("excludes-annotation-violation", lock, ev.target)) {
            ck.Report(ev.file, ev.line, "excludes-annotation-violation",
                      ev.target + " is annotated MERGEPURGE_EXCLUDES(" +
                          member + ") but is reached with " + lock +
                          " held");
          }
        }
      } else {
        targets.push_back(ev.target);
      }
      for (const std::string& h : ev.held) {
        const int rank_h = ck.mf.rank_by_name.count(h) != 0
                               ? ck.mf.rank_by_name[h]
                               : -1;
        for (const std::string& a : targets) {
          if (a == h) {
            if (once("rank-inversion", h, a)) {
              ck.Report(ev.file, ev.line, "rank-inversion",
                        (ev.is_call ? ev.target + " re-acquires " : "") + a +
                            " while it is already held (self-deadlock)");
            }
            continue;
          }
          ck.observed.emplace(
              std::make_pair(h, a),
              ev.file + ":" + std::to_string(ev.line) +
                  (ev.is_call ? " via " + ev.target : ""));
          const int rank_a = ck.mf.rank_by_name.count(a) != 0
                                 ? ck.mf.rank_by_name[a]
                                 : -1;
          if (ck.mf.excludes.count({h, a}) != 0) {
            if (once("excludes-violation", h, a)) {
              ck.Report(ev.file, ev.line, "excludes-violation",
                        a + " acquired with " + h +
                            " held, but the manifest EXCLUDES the pair" +
                            (ev.is_call ? " (via " + ev.target + ")" : ""));
            }
          } else if (rank_a <= rank_h) {
            if (once("rank-inversion", h, a)) {
              ck.Report(ev.file, ev.line, "rank-inversion",
                        a + " (rank " + std::to_string(rank_a) +
                            ") acquired with " + h + " (rank " +
                            std::to_string(rank_h) + ") held" +
                            (ev.is_call ? " via " + ev.target : "") +
                            "; ranks must strictly increase inward");
            }
          } else if (ck.mf.order.count({h, a}) == 0) {
            if (once("undeclared-edge", h, a)) {
              ck.Report(ev.file, ev.line, "undeclared-edge",
                        "observed nesting " + h + " -> " + a +
                            (ev.is_call ? " (via " + ev.target + ")" : "") +
                            " is not declared in lock_hierarchy.json 'order'");
            }
          }
        }
      }
    }
  }
}

void CheckCycles(Checker& ck, const std::string& manifest_path) {
  std::map<std::string, std::set<std::string>> adj;
  for (const auto& [f, t] : ck.mf.order) adj[f].insert(t);
  for (const auto& [edge, site] : ck.observed) adj[edge.first].insert(edge.second);
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> path;
  std::function<bool(const std::string&)> dfs =
      [&](const std::string& node) -> bool {
    color[node] = 1;
    path.push_back(node);
    for (const std::string& next : adj[node]) {
      if (color[next] == 1) {
        std::string cycle = next;
        for (auto it = std::find(path.begin(), path.end(), next);
             it != path.end(); ++it) {
          if (*it != next) cycle += " -> " + *it;
        }
        cycle += " -> " + next;
        ck.Report(manifest_path, 1, "cycle",
                  "lock-order cycle: " + cycle);
        return true;
      }
      if (color[next] == 0 && dfs(next)) return true;
    }
    path.pop_back();
    color[node] = 2;
    return false;
  };
  for (const auto& [node, _] : adj) {
    if (color[node] == 0 && dfs(node)) return;  // one cycle is enough
  }
}

void CheckDocs(Checker& ck, const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text) {
    ck.Report(path, 1, "doc-mismatch", "cannot read " + path);
    return;
  }
  // Each lock has a row "| `<rank symbol>` | `<name>`", outer to inner.
  std::vector<std::pair<int, size_t>> rows;  // rank, offset of the row
  for (const LockDef& def : ck.mf.locks) {
    const size_t at =
        text->find("| `" + def.rank_symbol + "` | `" + def.name + "`");
    if (at != std::string::npos) {
      rows.emplace_back(def.rank, at);
      continue;
    }
    ck.Report(path, 1, "doc-mismatch",
              "lock '" + def.name + "' has no hierarchy table row naming "
              "its rank symbol " + def.rank_symbol);
  }
  std::sort(rows.begin(), rows.end());
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].second > rows[i - 1].second) continue;  // ties: by offset
    const auto row = text->begin() + rows[i].second;
    ck.Report(path, 1 + static_cast<int>(std::count(text->begin(), row, '\n')),
              "doc-mismatch",
              "hierarchy table rows are not in rank order (outer first)");
  }
}

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(
      stderr,
      "usage: mergepurge_deadlockcheck --root=DIR [options]\n"
      "\n"
      "Lock-discipline lint over DIR/{src,tools,tests,bench,examples} and\n"
      "static lock-order verification of DIR/src against the lock\n"
      "hierarchy manifest, with ranks from DIR/src/util/lock_ranks.h.\n"
      "\n"
      "  --root=DIR        repository root\n"
      "  --manifest=PATH   hierarchy manifest (default ROOT/tools/lock_hierarchy.json)\n"
      "  --docs=PATH       docs file (default ROOT/docs/concurrency.md)\n"
      "  --skip-docs       skip the documentation check\n"
      "  --list-edges      print every observed nested acquisition\n"
      "\n"
      "Exit codes: 0 clean, 1 findings, 2 usage error.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root, manifest, docs;
  bool skip_docs = false, list_edges = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* name) -> std::optional<std::string> {
      const std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (auto v = value("--root")) root = *v;
    else if (auto v = value("--manifest")) manifest = *v;
    else if (auto v = value("--docs")) docs = *v;
    else if (arg == "--skip-docs") skip_docs = true;
    else if (arg == "--list-edges") list_edges = true;
    else if (arg == "--help" || arg == "-h") { Usage(); return 0; }
    else {
      std::fprintf(stderr, "deadlockcheck: unknown argument '%s'\n",
                   arg.c_str());
      return Usage();
    }
  }
  if (root.empty()) {
    std::fprintf(stderr, "deadlockcheck: --root is required\n");
    return Usage();
  }
  if (manifest.empty()) manifest = root + "/tools/lock_hierarchy.json";
  if (docs.empty()) docs = root + "/docs/concurrency.md";
  const std::string ranks = root + "/src/util/lock_ranks.h";

  Checker ck;
  if (!ParseManifest(manifest, ReadRanks(ranks), ranks, &ck.mf,
                     &ck.findings))
    return 2;

  // Scoped RAII types: the sync.h vocabulary plus the manifest's own.
  std::string scoped_pattern = "\\b(MutexLock|WriterLock|ReaderLock";
  for (const auto& [type, lock] : ck.mf.scoped_lock)
    scoped_pattern += "|" + type;
  scoped_pattern += ")\\s+(\\w+)\\s*\\(";
  const std::regex scoped_re(scoped_pattern);

  std::error_code ec;
  if (!fs::is_directory(fs::path(root) / "src", ec)) {
    std::fprintf(stderr, "deadlockcheck: %s/src is not a directory\n",
                 root.c_str());
    return 2;
  }
  std::vector<std::string> paths;  // root-relative
  for (const char* dir : {"src", "tools", "tests", "bench", "examples"}) {
    const fs::path top = fs::path(root) / dir;
    if (!fs::is_directory(top, ec)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(top)) {
      const std::string ext = entry.path().extension().string();
      if (!entry.is_regular_file() ||
          (ext != ".h" && ext != ".hpp" && ext != ".cc" && ext != ".cpp"))
        continue;
      paths.push_back(
          fs::relative(entry.path(), fs::path(root), ec).generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());

  // sync.h implements the lock vocabulary itself, and the lint fixtures
  // violate it on purpose (each is checked as its own root). The
  // lock-order pass also skips sync.cc and the rank table.
  const std::set<std::string> order_exempt = {
      "src/util/sync.cc", "src/util/lock_ranks.h"};
  std::vector<std::pair<std::string, std::string>> files;  // rel, normalized
  for (const std::string& rel : paths) {
    if (rel == "src/util/sync.h" ||
        rel.rfind("tests/lockcheck_fixtures/", 0) == 0)
      continue;
    auto text = ReadFileToString(root + "/" + rel);
    if (!text) continue;
    CollectAllows(ck, rel, *text);
    LintFile(ck, rel, Normalize(*text, /*keep_directives=*/true));
    const std::string ext = fs::path(rel).extension().string();
    if (rel.rfind("src/", 0) == 0 && (ext == ".h" || ext == ".cc") &&
        order_exempt.count(rel) == 0)
      files.emplace_back(rel, Normalize(*text));
  }
  CheckSyncIncludes(ck, root);

  for (const auto& [rel, text] : files)
    FileScanner(ck, rel, text, /*pass=*/1, scoped_re).Run();
  ResolvePendingMembers(ck);
  CheckSymbolCoverage(ck, manifest);
  for (const auto& [rel, text] : files)
    FileScanner(ck, rel, text, /*pass=*/2, scoped_re).Run();

  ComputeTransitiveAcquires(ck);
  CheckEvents(ck);
  CheckCycles(ck, manifest);
  if (!skip_docs) CheckDocs(ck, docs);
  if (list_edges) {
    for (const auto& [edge, site] : ck.observed) {
      std::printf("%s -> %s  [%s]\n", edge.first.c_str(),
                  edge.second.c_str(), site.c_str());
    }
  }

  std::sort(ck.findings.begin(), ck.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.id, a.msg) <
                     std::tie(b.file, b.line, b.id, b.msg);
            });
  for (const Finding& f : ck.findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.id.c_str(),
                f.msg.c_str());
  }
  if (!ck.findings.empty()) {
    std::fprintf(stderr, "deadlockcheck: %zu finding(s)\n",
                 ck.findings.size());
    return 1;
  }
  std::fprintf(stderr,
               "deadlockcheck: OK (%zu locks, %zu functions, %zu observed "
               "edges)\n",
               ck.mf.locks.size(), ck.fns.size(), ck.observed.size());
  return 0;
}
