#include "tools/lint_rules.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace bftreg::lint {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool thread_allowed(const std::string& path) {
  return starts_with(path, "src/runtime/") || starts_with(path, "src/socknet/") ||
         starts_with(path, "src/harness/");
}

/// Strips // and /* */ comments (tracking block state across lines) so the
/// pattern rules see only code. Waiver detection runs on the raw line.
std::string strip_comments(const std::string& line, bool& in_block) {
  std::string out;
  out.reserve(line.size());
  for (size_t i = 0; i < line.size(); ++i) {
    if (in_block) {
      if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        in_block = false;
        ++i;
      }
      continue;
    }
    if (line[i] == '/' && i + 1 < line.size()) {
      if (line[i + 1] == '/') break;  // rest of line is a comment
      if (line[i + 1] == '*') {
        in_block = true;
        ++i;
        continue;
      }
    }
    out.push_back(line[i]);
  }
  return out;
}

bool waived(const std::vector<std::string>& raw_lines, size_t idx,
            const std::string& rule) {
  if (idx >= raw_lines.size()) return false;
  const std::string needle = "bftreg-lint: allow(" + rule + ")";
  if (raw_lines[idx].find(needle) != std::string::npos) return true;
  return idx > 0 && raw_lines[idx - 1].find(needle) != std::string::npos;
}

const std::regex kRawThread(R"(\bstd\s*::\s*thread\b)");
const std::regex kDetach(R"(\.\s*detach\s*\()");
const std::regex kRandCall(R"((^|[^0-9A-Za-z_])s?rand\s*\()");
const std::regex kRandomDevice(R"(\bstd\s*::\s*random_device\b)");
// `std::mutex name;` / `Mutex name;` / `mutable std::shared_mutex name{};`
const std::regex kMutexMember(
    R"(^\s*(?:mutable\s+)?(?:std\s*::\s*(?:shared_)?mutex|Mutex)\s+([A-Za-z_]\w*)\s*(?:\{\s*\})?\s*;)");
// Resilience arithmetic: `3|4|5 * f` in either operand order. Deliberately
// not `\d+`: schedule constructions legitimately slice index ranges like
// `2 * f`, while 3/4/5 are exactly the protocol bounds (3f+1 RB, 4f+1 BSR,
// 5f+1 BCSR) that must live in config.h.
const std::regex kResilienceLiteral(R"(\b[345]\s*\*\s*f\b|\bf\s*\*\s*[345]\b)");
// Quorum-sized expressions spelled inline: `n - f` (the BSR quorum,
// Lemma 6) or the majority form `(n + f) / 2`. Like the k*f bounds, these
// must come from SystemConfig's accessors (quorum(), catch_up_quorum(),
// witness_threshold()) so a resilience change edits exactly one file.
const std::regex kQuorumArithmetic(
    R"(\bn\s*-\s*f\b|\(\s*n\s*\+\s*f\s*\)\s*/\s*2)");
// `Mutex name ACQUIRED_BEFORE(a, b);` / `std::mutex name ACQUIRED_AFTER(a);`
const std::regex kOrderedMutex(
    R"((?:std\s*::\s*(?:shared_)?mutex|Mutex)\s+([A-Za-z_]\w*)\s+ACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\))");
// A Tag-keyed std::map in the register layer is almost always a per-object
// value log -- the unbounded-node-count layout the compact store
// (object_store.h) replaced. Tag-keyed maps bounded by the response set of
// one operation are fine; waive those.
const std::regex kUnboundedStore(R"(\bstd\s*::\s*map\s*<\s*Tag\s*,)");
// Atomic member-function calls whose default memory order is seq_cst. The
// paren is part of the match so the argument scan knows where to start.
const std::regex kAtomicOp(
    R"((\.|->)\s*(load|store|exchange|fetch_add|fetch_sub|fetch_or|fetch_and|compare_exchange_weak|compare_exchange_strong)\s*\()");

/// Files the atomic-in-ring rule covers: the lock-free delivery path, where
/// every atomic access is part of a documented protocol and an implicit
/// seq_cst hides the synchronization argument (and costs a full fence on
/// weakly-ordered targets).
bool atomic_order_scoped(const std::string& rel_path) {
  return rel_path.rfind("src/runtime/", 0) == 0 ||
         rel_path == "src/common/mpsc_ring.h";
}

/// Argument text of a call whose opening paren sits at (line `idx`, column
/// `open`) of the comment-stripped lines; bounded look-ahead covers calls
/// broken across lines by clang-format.
std::string call_args(const std::vector<std::string>& code_lines, size_t idx,
                      size_t open) {
  std::string args;
  int depth = 0;
  for (size_t l = idx; l < code_lines.size() && l < idx + 6; ++l) {
    const std::string& line = code_lines[l];
    for (size_t c = (l == idx ? open : 0); c < line.size(); ++c) {
      const char ch = line[c];
      if (ch == '(') {
        if (++depth == 1) continue;
      } else if (ch == ')') {
        if (--depth == 0) return args;
      }
      args += ch;
    }
    args += ' ';
  }
  return args;  // unbalanced within the budget; scan what we collected
}

/// Reduces a lock expression to the bare member name the order edges use:
/// `box->mu` -> `mu`, `this->sched_mu_` -> `sched_mu_`, `*ep->mu` -> `mu`.
std::string lock_target(std::string expr) {
  while (!expr.empty() && (expr.front() == '*' || expr.front() == '&' ||
                           expr.front() == ' ' || expr.front() == '\n')) {
    expr.erase(expr.begin());
  }
  while (!expr.empty() && (expr.back() == ' ' || expr.back() == '\n')) {
    expr.pop_back();
  }
  size_t cut = std::string::npos;
  for (const char* sep : {"->", ".", "::"}) {
    const size_t at = expr.rfind(sep);
    if (at != std::string::npos) {
      const size_t after = at + std::strlen(sep);
      if (cut == std::string::npos || after > cut) cut = after;
    }
  }
  if (cut != std::string::npos) expr = expr.substr(cut);
  return expr;
}

// ---------------------------------------------------------------------------
// Text preparation for the structural scan.
// ---------------------------------------------------------------------------

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)); }

/// Blanks the contents of string and character literals so braces, parens,
/// and identifiers inside them cannot confuse the structural scan. A `'`
/// directly after an identifier character is a digit separator (1'000), not
/// a character literal.
std::string scrub_literals(const std::string& line) {
  std::string out = line;
  bool in_str = false, in_chr = false, esc = false;
  char prev = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    if (in_str || in_chr) {
      if (esc) {
        esc = false;
        out[i] = ' ';
        continue;
      }
      if (c == '\\') {
        esc = true;
        out[i] = ' ';
        continue;
      }
      if ((in_str && c == '"') || (in_chr && c == '\'')) {
        in_str = in_chr = false;
        prev = c;
        continue;
      }
      out[i] = ' ';
      continue;
    }
    if (c == '"') {
      in_str = true;
    } else if (c == '\'' && !is_ident(prev)) {
      in_chr = true;
    }
    prev = c;
  }
  return out;
}

struct Prepared {
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;  // comment-stripped (line rules)
  std::string text;                     // scrubbed joined text (scan)
  std::vector<int> line_of;             // 1-based line per text position
};

Prepared prepare(const std::string& content) {
  Prepared p;
  {
    std::istringstream in(content);
    std::string line;
    while (std::getline(in, line)) p.raw_lines.push_back(line);
  }
  bool in_block = false;
  p.code_lines.reserve(p.raw_lines.size());
  for (const auto& line : p.raw_lines) {
    p.code_lines.push_back(strip_comments(line, in_block));
  }
  for (size_t i = 0; i < p.code_lines.size(); ++i) {
    std::string scan = scrub_literals(p.code_lines[i]);
    // Preprocessor directives are not code for the structural scan (macro
    // bodies have unbalanced braces; #include paths look like identifiers).
    size_t first = scan.find_first_not_of(" \t");
    if (first != std::string::npos && scan[first] == '#') scan.clear();
    p.text += scan;
    p.text += '\n';
    p.line_of.insert(p.line_of.end(), scan.size() + 1, static_cast<int>(i) + 1);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Program model.
// ---------------------------------------------------------------------------

struct SerdeOp {
  std::string name;   // put_u32, get_bytes_view, ...
  std::string token;  // canonical width class: u8/u16/u32/u64/bytes/tag/...
  int line{0};
  bool is_put{false};
};

struct CallSite {
  std::string callee;  // last path component of the name
  int line{0};
  std::vector<std::string> held;  // active lock names at the call
  bool discarded{false};          // statement-shaped call, value unused
};

struct FnModel {
  std::string name;  // last component ("send")
  std::string qual;  // qualifier ("TcpNetwork"), empty for free/inline
  std::string file;
  int line{0};
  bool returns_result{false};
  std::vector<CallSite> calls;
  std::vector<std::pair<std::string, int>> blocking;  // direct ::syscall etc
  std::vector<std::pair<std::string, int>> acquires;  // direct lock, line
  std::vector<SerdeOp> serde;
};

struct ObservedEdge {
  std::string before, after;
  std::string file;
  std::string via;  // callee name for interprocedural edges, empty if direct
  int line{0};
};

struct DeclEdge {
  std::string before, after;
  std::string file;
  int line{0};
};

struct FileScan {
  std::vector<Violation> vio;  // structural single-file rules
  std::vector<FnModel> fns;
  std::vector<ObservedEdge> edges;  // direct nested acquisitions
};

const std::set<std::string>& keyword_set() {
  static const std::set<std::string> kKeywords = {
      "if",       "for",       "while",    "switch",   "catch",
      "return",   "sizeof",    "new",      "delete",   "throw",
      "do",       "else",      "case",     "default",  "goto",
      "operator", "static_assert",         "alignof",  "alignas",
      "decltype", "typeid",    "co_await", "co_return", "co_yield",
      "int",      "char",      "bool",     "void",     "float",
      "double",   "long",      "short",    "unsigned", "signed",
      "auto",     "constexpr", "const",    "static",   "inline",
      "explicit", "virtual",   "typename", "template", "using",
      "namespace", "noexcept", "requires", "assert",   "defined"};
  return kKeywords;
}

const std::set<std::string>& syscall_set() {
  static const std::set<std::string> kSyscalls = {
      "sendmsg", "sendto",   "send",     "recvmsg",  "recvfrom", "recv",
      "readv",   "read",     "writev",   "write",    "connect",  "accept4",
      "accept",  "poll",     "select",   "fsync",    "fdatasync",
      "shutdown", "close",   "epoll_wait"};
  return kSyscalls;
}

/// write_all / read_exact are the project's framed-I/O helpers: blocking by
/// contract, flagged directly under a lock wherever they are called.
bool is_blocking_helper(const std::string& name) {
  return name == "write_all" || name == "read_exact";
}

/// Canonical wire-width token for a serde call, or "" if the name is not a
/// serde primitive. bool is one byte on the wire; bytes/bytes_view/string
/// are all one length-prefixed class.
std::string serde_token(const std::string& name, bool* is_put) {
  std::string suffix;
  if (starts_with(name, "put_")) {
    *is_put = true;
    suffix = name.substr(4);
  } else if (starts_with(name, "get_")) {
    *is_put = false;
    suffix = name.substr(4);
  } else {
    return "";
  }
  static const std::map<std::string, std::string> kTokens = {
      {"u8", "u8"},       {"u16", "u16"},         {"u32", "u32"},
      {"u64", "u64"},     {"bool", "u8"},         {"bytes", "bytes"},
      {"bytes_view", "bytes"}, {"string", "bytes"},
      {"process_id", "process_id"}, {"tag", "tag"}};
  const auto it = kTokens.find(suffix);
  return it == kTokens.end() ? std::string() : it->second;
}

bool all_caps_token(const std::string& w) {
  bool has_alpha = false;
  for (char c : w) {
    if (c >= 'a' && c <= 'z') return false;
    if (c >= 'A' && c <= 'Z') has_alpha = true;
  }
  return has_alpha;
}

size_t match_paren(const std::string& t, size_t open) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i] == '(') ++depth;
    if (t[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

/// From the '(' at `open` (body-candidate already matched), classifies the
/// tokens after the parameter list. Returns the position of the function
/// body's '{', or npos if this is a declaration/call/initializer.
size_t find_body_brace(const std::string& t, size_t close) {
  size_t p = close + 1;
  auto body_or_init = [&](size_t stop_semi) -> size_t {
    // Inside a ctor-init list or trailing return type: the body '{' is the
    // first brace at paren depth 0 that does not directly follow an
    // identifier character (those are brace-inits like `a_{x}` / `Vec{1}`).
    int pd = 0;
    while (p < t.size()) {
      const char c = t[p];
      if (c == '(' || c == '[') ++pd;
      if (c == ')' || c == ']') --pd;
      if (pd == 0 && c == '{') {
        if (p > 0 && (is_ident(t[p - 1]) || t[p - 1] == '>')) {
          int bd = 0;
          while (p < t.size()) {  // skip the brace-init
            if (t[p] == '{') ++bd;
            if (t[p] == '}' && --bd == 0) break;
            ++p;
          }
        } else {
          return p;
        }
      }
      if (stop_semi && pd == 0 && c == ';') return std::string::npos;
      ++p;
    }
    return std::string::npos;
  };
  while (p < t.size()) {
    while (p < t.size() && is_space(t[p])) ++p;
    if (p >= t.size()) return std::string::npos;
    const char c = t[p];
    if (c == '{') return p;
    if (c == ':') {
      if (p + 1 < t.size() && t[p + 1] == ':') return std::string::npos;
      ++p;
      return body_or_init(/*stop_semi=*/1);
    }
    if (c == '-' && p + 1 < t.size() && t[p + 1] == '>') {
      p += 2;
      return body_or_init(/*stop_semi=*/1);
    }
    if (is_ident_start(c)) {
      size_t e = p;
      while (e < t.size() && is_ident(t[e])) ++e;
      const std::string w = t.substr(p, e - p);
      if (w == "const" || w == "noexcept" || w == "override" || w == "final" ||
          w == "mutable" || w == "throw" || w == "try" || all_caps_token(w)) {
        p = e;
        while (p < t.size() && is_space(t[p])) ++p;
        if (p < t.size() && t[p] == '(') {
          const size_t cp = match_paren(t, p);
          if (cp == std::string::npos) return std::string::npos;
          p = cp + 1;
        }
        continue;
      }
      return std::string::npos;
    }
    return std::string::npos;
  }
  return std::string::npos;
}

/// True when the call whose qualified name starts at `start` and whose
/// argument list opens at `open` is a whole discarded statement:
/// `receiver.chain()->build();` with nothing consuming the value.
bool discarded_statement(const std::string& t, size_t start, size_t open) {
  const size_t close = match_paren(t, open);
  if (close == std::string::npos) return false;
  size_t p = close + 1;
  while (p < t.size() && is_space(t[p])) ++p;
  if (p >= t.size() || t[p] != ';') return false;

  std::string prefix;
  size_t k = start;
  while (k > 0) {
    const char c = t[k - 1];
    if (is_ident(c) || c == '.' || c == ':' || c == '-' || c == '>' ||
        is_space(c)) {
      prefix.push_back(is_space(c) ? ' ' : c);
      --k;
      continue;
    }
    break;
  }
  const char stop = k == 0 ? '{' : t[k - 1];
  if (stop != ';' && stop != '{' && stop != '}') return false;
  // `return cfg.build();` consumes the value -- the word lands in prefix.
  std::reverse(prefix.begin(), prefix.end());
  static const std::set<std::string> kConsumers = {
      "return", "co_return", "co_await", "co_yield", "throw", "goto", "case"};
  size_t i = 0;
  while (i < prefix.size()) {
    if (!is_ident_start(prefix[i])) {
      ++i;
      continue;
    }
    size_t e = i;
    while (e < prefix.size() && is_ident(prefix[e])) ++e;
    if (kConsumers.count(prefix.substr(i, e - i))) return false;
    i = e;
  }
  return true;
}

/// The structural scan: one sequential pass over the scrubbed text that
/// tracks brace depth, MutexLock scopes (with guard.unlock()/guard.lock()
/// hand-off), and function bodies, emitting both the direct lock rules and
/// the per-function model the whole-program passes consume.
FileScan scan_file(const std::string& rel, const Prepared& p,
                   const LockOrder& order) {
  FileScan out;
  const std::string& t = p.text;

  auto line_at = [&](size_t pos) {
    if (p.line_of.empty()) return 1;
    return p.line_of[std::min(pos, p.line_of.size() - 1)];
  };
  auto flag = [&](size_t pos, const std::string& rule, std::string msg) {
    const int ln = line_at(pos);
    if (waived(p.raw_lines, static_cast<size_t>(ln) - 1, rule)) return;
    out.vio.push_back(Violation{rel, ln, rule, std::move(msg)});
  };

  struct HeldLock {
    std::string guard, lock;
    int depth;
    bool active;
  };
  struct OpenFn {
    size_t fn;       // index into out.fns
    int open_depth;  // depth just before the body '{'
  };
  std::vector<HeldLock> held;
  std::vector<OpenFn> fn_stack;
  std::map<size_t, size_t> pending_body;  // body '{' pos -> fn index
  int depth = 0;

  auto cur_fn = [&]() -> FnModel* {
    return fn_stack.empty() ? nullptr : &out.fns[fn_stack.back().fn];
  };
  auto active_held = [&]() {
    std::vector<std::string> v;
    for (const auto& h : held) {
      if (h.active) v.push_back(h.lock);
    }
    return v;
  };

  size_t i = 0;
  while (i < t.size()) {
    const char c = t[i];
    if (c == '{') {
      const auto it = pending_body.find(i);
      if (it != pending_body.end()) {
        fn_stack.push_back(OpenFn{it->second, depth});
        pending_body.erase(it);
      }
      ++depth;
      ++i;
      continue;
    }
    if (c == '}') {
      --depth;
      while (!held.empty() && held.back().depth > depth) held.pop_back();
      if (!fn_stack.empty() && depth == fn_stack.back().open_depth) {
        fn_stack.pop_back();
      }
      ++i;
      continue;
    }
    if (!is_ident_start(c) || (i > 0 && is_ident(t[i - 1]))) {
      ++i;
      continue;
    }

    // Parse a qualified identifier: a::b::c (no whitespace around ::).
    const size_t start = i;
    const bool leading_global =
        i >= 2 && t[i - 1] == ':' && t[i - 2] == ':' &&
        (i < 3 || (!is_ident(t[i - 3]) && t[i - 3] != ':' && t[i - 3] != '>'));
    size_t j = i;
    std::string last;
    size_t last_start = j;
    while (true) {
      size_t k = j;
      while (k < t.size() && is_ident(t[k])) ++k;
      last = t.substr(j, k - j);
      last_start = j;
      if (k + 2 < t.size() && t[k] == ':' && t[k + 1] == ':' &&
          is_ident_start(t[k + 2])) {
        j = k + 2;
        continue;
      }
      j = k;
      break;
    }
    i = j;  // main loop resumes after the identifier
    size_t nw = j;
    while (nw < t.size() && is_space(t[nw])) ++nw;

    // `MutexLock guard(expr);` -- the acquisition form the codebase uses.
    if (last == "MutexLock" && nw < t.size() && is_ident_start(t[nw])) {
      size_t ge = nw;
      while (ge < t.size() && is_ident(t[ge])) ++ge;
      const std::string guard = t.substr(nw, ge - nw);
      size_t po = ge;
      while (po < t.size() && is_space(t[po])) ++po;
      if (po < t.size() && t[po] == '(') {
        const size_t pc = match_paren(t, po);
        if (pc != std::string::npos) {
          const std::string lock = lock_target(t.substr(po + 1, pc - po - 1));
          const int ln = line_at(start);
          const auto must_precede = order.find(lock);
          for (const auto& h : held) {
            if (!h.active) continue;
            if (must_precede != order.end() &&
                must_precede->second.count(h.lock)) {
              flag(start, "lock-order",
                   "acquiring '" + lock + "' while '" + h.lock +
                       "' is held inverts the declared order ('" + lock +
                       "' ACQUIRED_BEFORE '" + h.lock + "')");
            }
            if (h.lock != lock) {
              out.edges.push_back(ObservedEdge{h.lock, lock, rel, "", ln});
            }
          }
          if (FnModel* f = cur_fn()) f->acquires.emplace_back(lock, ln);
          held.push_back(HeldLock{guard, lock, depth, true});
          i = pc + 1;
          continue;
        }
      }
      continue;
    }

    if (nw >= t.size() || t[nw] != '(') continue;

    // `guard.unlock()` / `guard.lock()` hand-off on a tracked MutexLock.
    if ((last == "unlock" || last == "lock") && last_start >= 2) {
      size_t rb = last_start - 1;
      while (rb > 0 && is_space(t[rb])) --rb;
      if (t[rb] == '.') {
        size_t re = rb;
        while (re > 0 && is_space(t[re - 1])) --re;
        size_t rs = re;
        while (rs > 0 && is_ident(t[rs - 1])) --rs;
        const std::string recv = t.substr(rs, re - rs);
        bool handled = false;
        for (auto it = held.rbegin(); it != held.rend(); ++it) {
          if (it->guard == recv) {
            it->active = (last == "lock");
            handled = true;
            break;
          }
        }
        if (handled) {
          const size_t pc = match_paren(t, nw);
          if (pc != std::string::npos) i = pc + 1;
          continue;
        }
      }
    }

    if (keyword_set().count(last)) continue;

    // `::sendmsg(...)` -- a global-namespace blocking syscall.
    if (leading_global) {
      if (syscall_set().count(last)) {
        const int ln = line_at(start);
        if (FnModel* f = cur_fn()) f->blocking.emplace_back("::" + last, ln);
        const auto now_held = active_held();
        if (!now_held.empty()) {
          flag(start, "blocking-in-lock",
               "blocking call '::" + last + "' while '" + now_held.back() +
                   "' is held; every thread contending on that mutex stalls "
                   "for the I/O -- stage the data under the lock, release, "
                   "then do the syscall");
        }
      }
      continue;
    }

    if (!fn_stack.empty()) {
      // Inside a function body: calls, serde ops, blocking helpers.
      if (is_blocking_helper(last)) {
        const int ln = line_at(start);
        if (FnModel* f = cur_fn()) f->blocking.emplace_back(last, ln);
        const auto now_held = active_held();
        if (!now_held.empty()) {
          flag(start, "blocking-in-lock",
               "blocking call '" + last + "' while '" + now_held.back() +
                   "' is held; every thread contending on that mutex stalls "
                   "for the I/O -- stage the data under the lock, release, "
                   "then do the syscall");
        }
        continue;
      }
      bool is_put = false;
      const std::string token = serde_token(last, &is_put);
      if (!token.empty() && rel != "src/common/serde.h") {
        cur_fn()->serde.push_back(SerdeOp{last, token, line_at(start), is_put});
        continue;
      }
      cur_fn()->calls.push_back(CallSite{last, line_at(start), active_held(),
                                         discarded_statement(t, start, nw)});
      continue;
    }

    // Outside any function body: a candidate definition.
    const size_t close = match_paren(t, nw);
    if (close == std::string::npos) continue;
    const size_t body = find_body_brace(t, close);
    if (body == std::string::npos) continue;
    std::string qual = t.substr(start, last_start - start);
    while (!qual.empty() && qual.back() == ':') qual.pop_back();
    size_t b = start;
    while (b > 0 && t[b - 1] != ';' && t[b - 1] != '{' && t[b - 1] != '}') --b;
    // `Result` must appear as a whole token: ReadResult/WriteResult are
    // plain structs, only the Result<T> template carries an error to check.
    bool returns_result = false;
    const std::string head = t.substr(b, start - b);
    for (size_t at = head.find("Result"); at != std::string::npos;
         at = head.find("Result", at + 1)) {
      const bool lead_ok = at == 0 || !is_ident(head[at - 1]);
      const size_t after = at + 6;
      const bool tail_ok = after >= head.size() || !is_ident(head[after]);
      if (lead_ok && tail_ok) {
        returns_result = true;
        break;
      }
    }
    FnModel fn;
    fn.name = last;
    fn.qual = qual;
    fn.file = rel;
    fn.line = line_at(last_start);
    fn.returns_result = returns_result;
    pending_body[body] = out.fns.size();
    out.fns.push_back(std::move(fn));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Line rules (unchanged from the single-file linter).
// ---------------------------------------------------------------------------

void line_rules(const std::string& rel_path, const Prepared& p,
                const std::string& content, std::vector<Violation>& out) {
  auto flag = [&](size_t idx, const std::string& rule,
                  const std::string& message) {
    if (waived(p.raw_lines, idx, rule)) return;
    out.push_back(
        Violation{rel_path, static_cast<int>(idx) + 1, rule, message});
  };

  for (size_t i = 0; i < p.code_lines.size(); ++i) {
    const std::string& code = p.code_lines[i];
    if (code.empty()) continue;

    if (!thread_allowed(rel_path) && std::regex_search(code, kRawThread)) {
      flag(i, "raw-thread",
           "std::thread outside src/runtime, src/socknet, src/harness; "
           "protocol code must stay single-threaded per process");
    }
    // Within the TCP transport the thread budget is the event loop's:
    // N loop shards + M mailbox consumers, all owned by event_loop.{h,cpp}.
    // Any other std::thread in src/socknet/ reintroduces the
    // thread-per-endpoint design the shard rewrite removed.
    if (starts_with(rel_path, "src/socknet/") &&
        rel_path != "src/socknet/event_loop.h" &&
        rel_path != "src/socknet/event_loop.cpp" &&
        std::regex_search(code, kRawThread)) {
      flag(i, "socknet-thread",
           "std::thread in src/socknet outside event_loop.{h,cpp}; transport "
           "threads belong to the LoopShard / MailboxPool budget");
    }
    if (std::regex_search(code, kDetach)) {
      flag(i, "detach",
           "detached threads outlive their transport; join via stop() instead");
    }
    if (rel_path != "src/common/rng.h" &&
        (std::regex_search(code, kRandCall) ||
         std::regex_search(code, kRandomDevice))) {
      flag(i, "raw-random",
           "unseeded randomness breaks replayability; draw from bftreg::Rng "
           "(src/common/rng.h)");
    }
    std::smatch m;
    if (std::regex_search(code, m, kMutexMember)) {
      const std::string name = m[1].str();
      const std::string companion = "GUARDED_BY(" + name + ")";
      if (content.find(companion) == std::string::npos) {
        flag(i, "unguarded-mutex",
             "mutex member '" + name + "' has no " + companion +
                 " companion field; write down what the lock protects");
      }
    }
    if (rel_path != "src/registers/config.h" &&
        std::regex_search(code, kResilienceLiteral)) {
      flag(i, "resilience-literal",
           "resilience bound arithmetic belongs in src/registers/config.h "
           "(use min_servers(ProtocolVariant, f), bsr_min_servers/"
           "bcsr_min_servers/rb_min_servers or bcsr_code_dimension)");
    }
    if (starts_with(rel_path, "src/registers/") &&
        rel_path != "src/registers/object_store.h" &&
        std::regex_search(code, kUnboundedStore)) {
      flag(i, "unbounded-store",
           "Tag-keyed std::map in the register layer: per-object logs "
           "belong in CompactObjectStore (src/registers/object_store.h), "
           "which bounds them with max_history and slab-allocates values; "
           "waive only maps bounded by one operation's response set");
    }
    if (rel_path != "src/registers/config.h" &&
        std::regex_search(code, kQuorumArithmetic)) {
      flag(i, "quorum-arithmetic",
           "quorum-sized arithmetic (n - f, (n + f) / 2) belongs in "
           "src/registers/config.h (use SystemConfig::quorum()/"
           "catch_up_quorum()/witness_threshold())");
    }
    if (atomic_order_scoped(rel_path)) {
      for (auto it = std::sregex_iterator(code.begin(), code.end(), kAtomicOp);
           it != std::sregex_iterator(); ++it) {
        const std::smatch& am = *it;
        const size_t open =
            static_cast<size_t>(am.position(0)) + am.length(0) - 1;
        if (call_args(p.code_lines, i, open).find("memory_order") ==
            std::string::npos) {
          flag(i, "atomic-in-ring",
               "atomic " + am[2].str() +
                   "() without an explicit memory order in the lock-free "
                   "delivery path; the default seq_cst hides the "
                   "synchronization argument -- name the order the protocol "
                   "comment justifies (see src/common/mpsc_ring.h)");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-program passes.
// ---------------------------------------------------------------------------

using StringSetMap = std::map<std::string, std::set<std::string>>;

StringSetMap transitive_closure(StringSetMap g) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [from, tos] : g) {
      std::set<std::string> add;
      for (const auto& mid : tos) {
        const auto it = g.find(mid);
        if (it == g.end()) continue;
        for (const auto& to : it->second) {
          if (!tos.count(to)) add.insert(to);
        }
      }
      if (!add.empty()) {
        tos.insert(add.begin(), add.end());
        changed = true;
      }
    }
  }
  return g;
}

struct EdgeInfo {
  std::string file, via;
  int line{0};
  bool declared{false};
};

std::string chain_string(const std::string& fn,
                         const std::map<std::string, std::string>& next,
                         const std::map<std::string, std::string>& term) {
  std::string s = fn;
  std::string cur = fn;
  while (true) {
    const auto it = next.find(cur);
    if (it == next.end() || it->second.empty()) break;
    cur = it->second;
    s += " -> " + cur;
  }
  const auto tm = term.find(cur);
  if (tm != term.end()) s += " -> " + tm->second;
  return s;
}

}  // namespace

LockOrder collect_lock_order(const std::string& content) {
  LockOrder order;
  std::istringstream in(content);
  std::string line, code;
  bool in_block = false;
  while (std::getline(in, line)) {
    code += strip_comments(line, in_block);
    code += '\n';
  }
  for (std::sregex_iterator it(code.begin(), code.end(), kOrderedMutex), end;
       it != end; ++it) {
    const std::string name = (*it)[1].str();
    const bool before = (*it)[2].str() == "BEFORE";
    std::istringstream args((*it)[3].str());
    std::string arg;
    while (std::getline(args, arg, ',')) {
      const std::string other = lock_target(arg);
      if (other.empty()) continue;
      if (before) {
        order[name].insert(other);  // name < other
      } else {
        order[other].insert(name);  // other < name
      }
    }
  }
  return order;
}

std::vector<Violation> lint_content(const std::string& rel_path,
                                    const std::string& content) {
  return lint_content(rel_path, content, collect_lock_order(content));
}

std::vector<Violation> lint_content(const std::string& rel_path,
                                    const std::string& content,
                                    const LockOrder& order) {
  const Prepared p = prepare(content);
  std::vector<Violation> out;
  line_rules(rel_path, p, content, out);
  FileScan scan = scan_file(rel_path, p, order);
  out.insert(out.end(), scan.vio.begin(), scan.vio.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const Violation& a, const Violation& b) {
                     return a.line < b.line;
                   });
  return out;
}

std::vector<Violation> lint_program(const std::vector<SourceFile>& files) {
  std::vector<Violation> out;

  // Stage 1: per-file preparation, merged declared lock order, file scans.
  std::map<std::string, Prepared> prepared;
  LockOrder declared;
  std::vector<DeclEdge> decl_edges;
  for (const auto& f : files) {
    Prepared p = prepare(f.content);
    for (std::sregex_iterator it(p.text.begin(), p.text.end(), kOrderedMutex),
         end;
         it != end; ++it) {
      const std::string name = (*it)[1].str();
      const bool before = (*it)[2].str() == "BEFORE";
      const int ln = p.line_of[std::min(static_cast<size_t>(it->position(0)),
                                        p.line_of.size() - 1)];
      std::istringstream args((*it)[3].str());
      std::string arg;
      while (std::getline(args, arg, ',')) {
        const std::string other = lock_target(arg);
        if (other.empty()) continue;
        const std::string a = before ? name : other;
        const std::string b = before ? other : name;
        declared[a].insert(b);
        decl_edges.push_back(DeclEdge{a, b, f.path, ln});
      }
    }
    prepared.emplace(f.path, std::move(p));
  }

  std::vector<FnModel> all_fns;
  std::vector<ObservedEdge> observed;
  for (const auto& f : files) {
    const Prepared& p = prepared.at(f.path);
    line_rules(f.path, p, f.content, out);
    FileScan scan = scan_file(f.path, p, declared);
    out.insert(out.end(), scan.vio.begin(), scan.vio.end());
    observed.insert(observed.end(), scan.edges.begin(), scan.edges.end());
    for (auto& fn : scan.fns) all_fns.push_back(std::move(fn));
  }

  auto waived_at = [&](const std::string& file, int line,
                       const std::string& rule) {
    const auto it = prepared.find(file);
    if (it == prepared.end()) return false;
    return waived(it->second.raw_lines, static_cast<size_t>(line) - 1, rule);
  };
  auto flag = [&](const std::string& file, int line, const std::string& rule,
                  std::string msg) {
    if (waived_at(file, line, rule)) return;
    out.push_back(Violation{file, line, rule, std::move(msg)});
  };

  // Stage 2: per-definition summaries, merged by bare name under agreement
  // semantics. Calls resolve by name only, so overloads and same-named
  // methods (count(), read(), build(), ...) alias each other; a name-level
  // summary therefore claims only what EVERY definition of that name
  // agrees on. That trades false negatives on genuinely-aliased names for
  // zero lock/blocking noise from std-style accessor names -- the
  // documented precision bar.
  std::map<std::string, std::vector<size_t>> defs_of;
  for (size_t d = 0; d < all_fns.size(); ++d) {
    defs_of[all_fns[d].name].push_back(d);
  }

  std::vector<std::set<std::string>> def_acq(all_fns.size());
  std::vector<char> def_block(all_fns.size(), 0);
  std::vector<std::pair<std::string, std::string>> def_witness(
      all_fns.size());  // (next callee or "", terminal syscall)
  std::map<std::string, std::set<std::string>> name_acq;
  std::map<std::string, char> name_block;
  std::map<std::string, std::string> block_next, block_term;

  for (size_t d = 0; d < all_fns.size(); ++d) {
    const FnModel& fn = all_fns[d];
    for (const auto& [lock, line] : fn.acquires) def_acq[d].insert(lock);
    if (!fn.blocking.empty()) {
      def_block[d] = 1;
      def_witness[d] = {"", fn.blocking.front().first};
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t d = 0; d < all_fns.size(); ++d) {
      const FnModel& fn = all_fns[d];
      for (const auto& c : fn.calls) {
        if (!def_block[d]) {
          if (is_blocking_helper(c.callee)) {
            def_block[d] = 1;
            def_witness[d] = {"", c.callee};
          } else if (name_block.count(c.callee) && name_block.at(c.callee)) {
            def_block[d] = 1;
            def_witness[d] = {c.callee, block_term.at(c.callee)};
          }
        }
        const auto it = name_acq.find(c.callee);
        if (it != name_acq.end()) {
          def_acq[d].insert(it->second.begin(), it->second.end());
        }
      }
    }
    for (const auto& [name, defs] : defs_of) {
      const bool blocks = std::all_of(defs.begin(), defs.end(),
                                      [&](size_t d) { return def_block[d]; });
      char& nb = name_block[name];
      if (blocks && !nb) {
        nb = 1;
        block_next[name] = def_witness[defs.front()].first;
        block_term[name] = def_witness[defs.front()].second;
        changed = true;
      }
      std::set<std::string> agreed = def_acq[defs.front()];
      for (size_t k = 1; k < defs.size() && !agreed.empty(); ++k) {
        std::set<std::string> keep;
        std::set_intersection(agreed.begin(), agreed.end(),
                              def_acq[defs[k]].begin(), def_acq[defs[k]].end(),
                              std::inserter(keep, keep.begin()));
        agreed.swap(keep);
      }
      if (agreed != name_acq[name]) {
        name_acq[name] = std::move(agreed);
        changed = true;
      }
    }
  }

  std::set<std::string> result_fns;
  for (const auto& [name, defs] : defs_of) {
    if (std::all_of(defs.begin(), defs.end(), [&](size_t d) {
          return all_fns[d].returns_result;
        })) {
      result_fns.insert(name);
    }
  }

  // Pass: interprocedural blocking-in-lock, and observed interprocedural
  // lock edges (held lock -> every lock the callee may take).
  for (const auto& fn : all_fns) {
    for (const auto& c : fn.calls) {
      if (c.held.empty()) continue;
      const auto defined = defs_of.find(c.callee);
      if (defined == defs_of.end()) continue;
      if (name_block.count(c.callee) && name_block.at(c.callee)) {
        flag(fn.file, c.line, "blocking-in-lock",
             "call '" + c.callee + "()' may reach a blocking syscall while '" +
                 c.held.back() + "' is held (" +
                 chain_string(c.callee, block_next, block_term) +
                 "); stage data under the lock, release, then do the I/O");
      }
      const auto it = name_acq.find(c.callee);
      if (it == name_acq.end()) continue;
      for (const auto& lock : it->second) {
        for (const auto& h : c.held) {
          if (h == lock) continue;
          observed.push_back(ObservedEdge{h, lock, fn.file, c.callee, c.line});
        }
      }
    }
  }

  // Pass: global lock-order graph. Union of declared and observed edges;
  // cycles are potential deadlocks, observed edges outside the declared
  // closure must be written down.
  std::map<std::pair<std::string, std::string>, EdgeInfo> edge_info;
  StringSetMap graph;
  for (const auto& e : decl_edges) {
    graph[e.before].insert(e.after);
    edge_info.emplace(std::make_pair(e.before, e.after),
                      EdgeInfo{e.file, "", e.line, true});
  }
  for (const auto& e : observed) {
    graph[e.before].insert(e.after);
    edge_info.emplace(std::make_pair(e.before, e.after),
                      EdgeInfo{e.file, e.via, e.line, false});
  }

  const StringSetMap declared_closure = transitive_closure(declared);

  {
    // DFS cycle detection over the union graph; one report per distinct
    // cycle node set, anchored at the back edge's provenance.
    std::map<std::string, int> color;  // 0 new, 1 on stack, 2 done
    std::vector<std::string> path;
    std::set<std::string> reported;
    std::function<void(const std::string&)> dfs =
        [&](const std::string& u) {
          color[u] = 1;
          path.push_back(u);
          const auto it = graph.find(u);
          if (it != graph.end()) {
            for (const auto& v : it->second) {
              if (color[v] == 1) {
                auto at = std::find(path.begin(), path.end(), v);
                std::vector<std::string> cyc(at, path.end());
                std::vector<std::string> key = cyc;
                std::sort(key.begin(), key.end());
                std::string canon;
                for (const auto& n : key) canon += n + "|";
                if (!reported.insert(canon).second) continue;
                std::string walk;
                for (const auto& n : cyc) walk += n + " -> ";
                walk += v;
                std::string provenance;
                for (size_t e = 0; e < cyc.size(); ++e) {
                  const std::string& a = cyc[e];
                  const std::string& b = e + 1 < cyc.size() ? cyc[e + 1] : v;
                  const auto ei = edge_info.at(std::make_pair(a, b));
                  provenance += "; '" + a + "' -> '" + b + "' " +
                                (ei.declared ? "declared" : "observed") +
                                " at " + ei.file + ":" + std::to_string(ei.line);
                  if (!ei.via.empty()) provenance += " (via '" + ei.via + "')";
                }
                const auto back = edge_info.at(std::make_pair(u, v));
                flag(back.file, back.line, "lock-cycle",
                     "lock-order cycle " + walk + provenance +
                         "; a cycle in the acquisition graph is a potential "
                         "deadlock");
              } else if (color[v] == 0) {
                dfs(v);
              }
            }
          }
          path.pop_back();
          color[u] = 2;
        };
    for (const auto& [node, tos] : graph) {
      if (color[node] == 0) dfs(node);
    }
  }

  {
    std::set<std::pair<std::string, std::string>> seen;
    for (const auto& e : observed) {
      if (!seen.insert(std::make_pair(e.before, e.after)).second) continue;
      const auto before_it = declared_closure.find(e.before);
      if (before_it != declared_closure.end() &&
          before_it->second.count(e.after)) {
        continue;  // covered by the declared order
      }
      const auto after_it = declared_closure.find(e.after);
      if (after_it != declared_closure.end() &&
          after_it->second.count(e.before)) {
        continue;  // inverts a declared edge: the cycle pass reports it
      }
      std::string how =
          e.via.empty()
              ? "nested acquisition takes '" + e.before + "' then '" + e.after +
                    "'"
              : "holding '" + e.before + "', the call to '" + e.via +
                    "()' acquires '" + e.after + "'";
      flag(e.file, e.line, "lock-order-undeclared",
           how +
               ", but no ACQUIRED_BEFORE/ACQUIRED_AFTER edge declares that "
               "order; write it on the mutex member so this analyzer and "
               "Clang's thread-safety analysis can hold future edits to it");
    }
  }

  // Pass: serde wire-symmetry. Writers and readers pair on (scope, stem):
  // the encode/parse methods of one type, or free encode_X/decode_X
  // functions sharing the stem X. Exactly one writer and one reader per key
  // participate; the put_* token sequence must equal the get_* sequence.
  {
    static const std::vector<std::string> kWriteVerbs = {
        "encode", "serialize", "save", "pack", "seal", "marshal", "write",
        "put"};
    static const std::vector<std::string> kReadVerbs = {
        "decode", "parse", "deserialize", "load", "unpack", "read", "get",
        "unseal", "unmarshal"};
    auto stem_of = [](const std::string& name,
                      const std::vector<std::string>& verbs,
                      bool* matched) -> std::string {
      for (const auto& v : verbs) {
        if (name == v) {
          *matched = true;
          return "";
        }
        if (starts_with(name, v + "_")) {
          *matched = true;
          return name.substr(v.size() + 1);
        }
      }
      *matched = false;
      return "";
    };
    std::map<std::string, std::vector<const FnModel*>> writers, readers;
    for (const auto& fn : all_fns) {
      if (fn.serde.empty()) continue;
      const bool all_puts = std::all_of(
          fn.serde.begin(), fn.serde.end(),
          [](const SerdeOp& op) { return op.is_put; });
      const bool all_gets = std::all_of(
          fn.serde.begin(), fn.serde.end(),
          [](const SerdeOp& op) { return !op.is_put; });
      bool matched = false;
      if (all_puts) {
        const std::string stem = stem_of(fn.name, kWriteVerbs, &matched);
        if (matched) writers[fn.qual + "#" + stem].push_back(&fn);
      } else if (all_gets) {
        const std::string stem = stem_of(fn.name, kReadVerbs, &matched);
        if (matched) readers[fn.qual + "#" + stem].push_back(&fn);
      }
    }
    for (const auto& [key, ws] : writers) {
      const auto rit = readers.find(key);
      if (rit == readers.end()) continue;
      if (ws.size() != 1 || rit->second.size() != 1) continue;  // ambiguous
      const FnModel& w = *ws.front();
      const FnModel& r = *rit->second.front();
      const std::string pair_desc =
          "'" + (w.qual.empty() ? w.name : w.qual + "::" + w.name) + "' (" +
          w.file + ":" + std::to_string(w.line) + ") vs '" +
          (r.qual.empty() ? r.name : r.qual + "::" + r.name) + "' (" + r.file +
          ":" + std::to_string(r.line) + ")";
      const size_t n = std::min(w.serde.size(), r.serde.size());
      bool diverged = false;
      for (size_t k = 0; k < n; ++k) {
        if (w.serde[k].token == r.serde[k].token) continue;
        flag(r.file, r.serde[k].line, "serde-symmetry",
             "wire format drift between " + pair_desc + ": field " +
                 std::to_string(k + 1) + " is written with '" +
                 w.serde[k].name + "' (" + w.file + ":" +
                 std::to_string(w.serde[k].line) + ") but read with '" +
                 r.serde[k].name + "'");
        diverged = true;
        break;
      }
      if (!diverged && w.serde.size() != r.serde.size()) {
        const FnModel& longer = w.serde.size() > r.serde.size() ? w : r;
        const SerdeOp& extra = longer.serde[n];
        flag(longer.file, extra.line, "serde-symmetry",
             "wire format drift between " + pair_desc + ": the writer emits " +
                 std::to_string(w.serde.size()) + " field(s) but the reader "
                 "consumes " +
                 std::to_string(r.serde.size()) + "; '" + extra.name +
                 "' has no counterpart");
      }
    }
  }

  // Pass: unchecked-result. A statement-shaped call to a Result-returning
  // function whose value nothing consumes.
  for (const auto& fn : all_fns) {
    for (const auto& c : fn.calls) {
      if (!c.discarded || !result_fns.count(c.callee)) continue;
      flag(fn.file, c.line, "unchecked-result",
           "result of '" + c.callee +
               "()' is discarded but the function returns Result; check ok() "
               "or propagate the error");
    }
  }

  std::sort(out.begin(), out.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return out;
}

std::vector<Violation> lint_tree(const std::string& repo_root) {
  namespace fs = std::filesystem;
  const fs::path root(repo_root);
  const fs::path src = root / "src";
  if (!fs::is_directory(src)) {
    throw std::runtime_error("no src/ directory under " + repo_root);
  }

  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".h" || ext == ".cpp") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back(
        SourceFile{fs::relative(path, root).generic_string(), buf.str()});
  }
  return lint_program(files);
}

std::string format(const Violation& v) {
  return v.file + ":" + std::to_string(v.line) + ": [" + v.rule + "] " + v.message;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

struct RuleMeta {
  const char* id;
  const char* text;
};

// Fixed catalog order so ruleIndex values (and the golden test) are stable.
constexpr RuleMeta kRuleCatalog[] = {
    {"raw-thread", "std::thread outside the runtime/transport/harness layers"},
    {"detach", "detached thread outlives its transport"},
    {"raw-random", "unseeded randomness breaks replayability"},
    {"unguarded-mutex", "mutex member without a GUARDED_BY companion"},
    {"resilience-literal", "resilience bound arithmetic outside config.h"},
    {"lock-order", "nested acquisition inverts a declared lock order"},
    {"blocking-in-lock",
     "call chain from a MutexLock scope to a blocking syscall"},
    {"lock-cycle", "cycle in the global declared+observed lock-order graph"},
    {"lock-order-undeclared",
     "observed acquisition order with no declared edge"},
    {"serde-symmetry", "serialize/deserialize wire formats drifted apart"},
    {"unchecked-result", "discarded Result<T> return value"},
    {"atomic-in-ring",
     "implicit seq_cst atomic access in the lock-free delivery path"},
    // Appended last: ruleIndex values above are frozen by the SARIF golden.
    {"quorum-arithmetic", "quorum-sized arithmetic outside config.h"},
    {"socknet-thread",
     "std::thread in src/socknet outside the event-loop shard pool"},
    {"unbounded-store",
     "Tag-keyed std::map outside the compact object store"},
};

}  // namespace

std::string to_sarif(const std::vector<Violation>& violations) {
  std::map<std::string, int> rule_index;
  std::string rules;
  for (const auto& meta : kRuleCatalog) {
    rule_index[meta.id] = static_cast<int>(rule_index.size());
    if (!rules.empty()) rules += ",";
    rules += std::string("\n        {\"id\": \"") + meta.id +
             "\", \"shortDescription\": {\"text\": \"" + meta.text + "\"}}";
  }
  std::string results;
  for (const auto& v : violations) {
    if (!results.empty()) results += ",";
    results += "\n      {\"ruleId\": \"" + json_escape(v.rule) + "\"";
    const auto it = rule_index.find(v.rule);
    if (it != rule_index.end()) {
      results += ", \"ruleIndex\": " + std::to_string(it->second);
    }
    results +=
        ", \"level\": \"error\", \"message\": {\"text\": \"" +
        json_escape(v.message) +
        "\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
        "{\"uri\": \"" +
        json_escape(v.file) +
        "\"}, \"region\": {\"startLine\": " + std::to_string(v.line) +
        "}}}]}";
  }
  std::string doc;
  doc += "{\n";
  doc += "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  doc += "  \"version\": \"2.1.0\",\n";
  doc += "  \"runs\": [{\n";
  doc += "    \"tool\": {\"driver\": {\n";
  doc += "      \"name\": \"bftreg_lint\",\n";
  doc += "      \"informationUri\": \"docs/ANALYSIS.md\",\n";
  doc += "      \"rules\": [" + rules + "\n      ]\n";
  doc += "    }},\n";
  doc += "    \"results\": [" + results + (results.empty() ? "]\n" : "\n    ]\n");
  doc += "  }]\n";
  doc += "}\n";
  return doc;
}

}  // namespace bftreg::lint
