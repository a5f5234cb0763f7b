// Whole-program protocol analyzer for bftreg (CLI driver in
// tools/bftreg_lint.cpp, fixtures in tests/lint_test.cpp).
//
// The analyzer runs in two stages. Stage one builds a lightweight program
// model over every .h/.cpp under src/: a symbol index of function
// definitions, the call graph between them, MutexLock scopes (including
// explicit guard.unlock()/guard.lock() hand-off), declared and observed
// lock-acquisition edges, the ordered Serializer::put_* / Deserializer::
// get_* sequence of every serde function, and per-function summaries
// ("may this function transitively reach a blocking syscall?", "which
// locks may it transitively acquire?") computed to a fixpoint over the
// call graph. Stage two runs the rule passes over the merged model, so a
// violation may span any number of files.
//
// The rules encode conventions the compiler cannot check but that the
// protocol correctness argument (Lemmas 1-4) leans on:
//
//   raw-thread          std::thread outside src/runtime, src/socknet,
//                       src/harness -- protocol code must stay
//                       single-threaded per process; only the transports
//                       and the harness may spawn threads.
//   detach              .detach() anywhere -- detached threads outlive
//                       their network and turn shutdown into a race.
//   raw-random          rand()/srand()/std::random_device outside
//                       src/common/rng.h -- all randomness must flow
//                       through the seeded Rng so executions replay.
//   unguarded-mutex     a mutex member with no GUARDED_BY(name) companion
//                       in the same file -- every lock must write down what
//                       it protects.
//   resilience-literal  `k * f` resilience arithmetic outside
//                       src/registers/config.h -- the 4f+1 / 5f+1 / 3f+1
//                       bounds live in exactly one place.
//   quorum-arithmetic   quorum-sized expressions (`n - f`, `(n + f) / 2`)
//                       outside src/registers/config.h -- quorum sizes flow
//                       from SystemConfig::quorum() / catch_up_quorum() /
//                       witness_threshold(), same single-source rule as the
//                       resilience bounds. Index arithmetic that happens to
//                       spell `n - f` (e.g. "the last f servers" in a
//                       scripted schedule) is waived in place.
//   lock-order          a nested `MutexLock` scope that acquires against a
//                       declared ACQUIRED_BEFORE / ACQUIRED_AFTER edge.
//                       Direct inversions only; transitive consequences of
//                       the declared+observed graph are `lock-cycle`'s job.
//   blocking-in-lock    a call chain from a MutexLock scope to a blocking
//                       syscall (`::sendmsg`, `::recv`, `::connect`, ...)
//                       or framed-I/O helper (write_all/read_exact).
//                       Interprocedural: a direct syscall under the lock is
//                       flagged where it stands, and a call into a function
//                       that *transitively* reaches one is flagged at the
//                       call site with the offending chain spelled out
//                       (`flush -> sendmsg_frames -> ::sendmsg`). I/O under
//                       a lock serializes every thread contending on that
//                       mutex behind the kernel (the old transport's
//                       write_all-under-mutex was exactly this); stage data
//                       under the lock, release, then perform the syscall.
//   lock-cycle          a cycle in the global lock-order graph: declared
//                       ACQUIRED_BEFORE/AFTER edges from every header
//                       merged with acquisition orders actually observed in
//                       code (nested MutexLock scopes, including locks
//                       taken inside transitive callees), transitive
//                       closure computed over the union. A cycle is a
//                       potential deadlock no single file can show.
//   lock-order-undeclared  an acquisition order observed in code (again
//                       including through calls) with no declared
//                       ACQUIRED_BEFORE/AFTER edge covering it. Observed
//                       nesting must be written down where both Clang's
//                       analysis and this linter can hold it against future
//                       edits -- an undeclared edge is invisible until it
//                       completes a cycle.
//   serde-symmetry      a serialize/deserialize pair whose wire formats
//                       drifted apart. For every paired writer/reader (the
//                       `encode`/`parse` methods of one type, or free
//                       `encode_X`/`decode_X` functions sharing the stem X)
//                       the ordered put_* sequence must match the ordered
//                       get_* sequence in count, order, and width
//                       (put_bytes/get_bytes/get_bytes_view/get_string are
//                       one length-prefixed class; put_bool is u8-width;
//                       the compact encodings are classes of their own:
//                       put_varint/get_varint/get_varint32, compact_tag,
//                       and compact_bytes/compact_bytes_view).
//                       Catches wire-format drift at lint time instead of
//                       on a cross-version cluster.
//   unchecked-result    a discarded `Result<T>` return: a statement that
//                       calls a Result-returning function and does nothing
//                       with the value. Mirrors the [[nodiscard]] attribute
//                       on Result so the linter and the compiler agree
//                       (and so non-compiled snippets are covered too).
//   atomic-in-ring      an atomic load/store/exchange/fetch_*/
//                       compare_exchange_* without an explicit
//                       memory_order argument inside the lock-free
//                       delivery path (src/runtime/** and
//                       common/mpsc_ring.h). Those files carry a written
//                       memory-order argument per access; an implicit
//                       seq_cst both hides which ordering the proof relies
//                       on and costs a full fence on weakly-ordered
//                       targets. Multi-line calls are handled by a bounded
//                       paren-balanced look-ahead.
//   socknet-thread      std::thread inside src/runtime/ or src/socknet/
//                       anywhere but runtime/executor.{h,cpp}. Both
//                       real-time transports run on that executor, whose
//                       loop shards + mailbox consumers are their entire
//                       thread budget; a thread spawned elsewhere in them
//                       is a thread per process or per endpoint creeping
//                       back in.
//
// A finding can be waived by putting `bftreg-lint: allow(<rule>)` in a
// comment on the offending line or the line directly above it, with a
// justification.
//
// Precision bar: the model is textual (comment-stripped, string-aware,
// brace-tracked), not a C++ front end. Calls are resolved by name, not by
// type; calls made through macros are invisible; a call and its arguments
// must share a line. That is the same bar as the original single-file
// rules -- and every finding is waivable the same way.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace bftreg::lint {

struct Violation {
  std::string file;  // path as given to lint_content (repo-relative)
  int line{0};       // 1-based
  std::string rule;
  std::string message;
};

/// One source file handed to the whole-program analyzer.
struct SourceFile {
  std::string path;     // repo-relative, forward slashes
  std::string content;
};

/// Declared acquisition order: order["a"] contains "b" iff `a` must be
/// acquired before `b` (from `ACQUIRED_BEFORE` / `ACQUIRED_AFTER`
/// annotations on mutex members). Mutexes are identified by their bare
/// member name -- `box->mu` and `mu` are the same lock for this purpose.
using LockOrder = std::map<std::string, std::set<std::string>>;

/// Extracts the ACQUIRED_BEFORE / ACQUIRED_AFTER edges declared in one
/// file's contents (comments stripped first).
LockOrder collect_lock_order(const std::string& content);

/// Runs the single-file rules over one file's contents. `rel_path` must be
/// repo-relative with forward slashes (e.g. "src/codec/rs.cpp") -- the
/// path-scoped rules key off it. The two-argument form checks lock order
/// against the edges declared in the same file; lint_program passes the
/// merged program-wide order. The whole-program passes (interprocedural
/// blocking, lock graph, serde symmetry, unchecked result) need the full
/// model and only run under lint_program / lint_tree.
std::vector<Violation> lint_content(const std::string& rel_path,
                                    const std::string& content);
std::vector<Violation> lint_content(const std::string& rel_path,
                                    const std::string& content,
                                    const LockOrder& order);

/// Builds the program model over `files` and runs every pass: the
/// single-file rules on each file plus the whole-program analyses over the
/// merged model. This is the full analyzer; lint_tree is a thin directory
/// walker over it.
std::vector<Violation> lint_program(const std::vector<SourceFile>& files);

/// Scans `<repo_root>/src` recursively for .h/.cpp files and runs
/// lint_program over them. Returns all violations; I/O errors throw
/// std::runtime_error.
std::vector<Violation> lint_tree(const std::string& repo_root);

/// "path:line: [rule] message" -- one line, compiler-style.
std::string format(const Violation& v);

/// SARIF 2.1.0 document for CI code-scanning upload (one run, one result
/// per violation, rule metadata included). Deterministic output -- the
/// golden test in tests/lint_test.cpp diffs it byte-for-byte.
std::string to_sarif(const std::vector<Violation>& violations);

}  // namespace bftreg::lint
