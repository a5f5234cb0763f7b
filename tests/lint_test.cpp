// Unit fixture for tools/bftreg_lint: each banned pattern is demonstrated
// on a synthetic source, and each waiver/exemption path is exercised.
#include "tools/lint_rules.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

namespace bftreg::lint {
namespace {

bool has_rule(const std::vector<Violation>& vs, const std::string& rule) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.rule == rule; });
}

TEST(LintRawThread, FlaggedOutsideRuntimeDirs) {
  const std::string src = "#include <thread>\nstd::thread t([]{});\n";
  const auto vs = lint_content("src/registers/protocol_ops.cpp", src);
  ASSERT_TRUE(has_rule(vs, "raw-thread"));
  EXPECT_EQ(vs.front().line, 2);
}

TEST(LintRawThread, AllowedInRuntimeSocknetHarness) {
  const std::string src = "std::thread t([]{});\n";
  EXPECT_FALSE(has_rule(lint_content("src/runtime/thread_network.cpp", src),
                        "raw-thread"));
  EXPECT_FALSE(
      has_rule(lint_content("src/socknet/tcp_network.cpp", src), "raw-thread"));
  EXPECT_FALSE(
      has_rule(lint_content("src/harness/thread_cluster.cpp", src), "raw-thread"));
}

TEST(LintRawThread, CommentedMentionNotFlagged) {
  const std::string src = "// std::thread is banned here\nint x;\n";
  EXPECT_FALSE(has_rule(lint_content("src/registers/server.cpp", src), "raw-thread"));
}

TEST(LintDetach, FlaggedEverywhereEvenRuntime) {
  const std::string src = "std::thread t([]{});\nt.detach();\n";
  const auto vs = lint_content("src/runtime/thread_network.cpp", src);
  ASSERT_TRUE(has_rule(vs, "detach"));
}

TEST(LintRawRandom, RandAndRandomDeviceFlagged) {
  EXPECT_TRUE(has_rule(
      lint_content("src/workload/workload.cpp", "int x = rand();\n"), "raw-random"));
  EXPECT_TRUE(has_rule(
      lint_content("src/workload/workload.cpp", "srand(42);\n"), "raw-random"));
  EXPECT_TRUE(
      has_rule(lint_content("src/workload/workload.cpp", "std::random_device rd;\n"),
               "raw-random"));
}

TEST(LintRawRandom, RngHeaderExemptAndIdentifiersNotFlagged) {
  EXPECT_FALSE(has_rule(
      lint_content("src/common/rng.h", "std::random_device rd;\n"), "raw-random"));
  // Identifiers merely containing "rand" are not calls to rand().
  EXPECT_FALSE(has_rule(
      lint_content("src/sim/simulator.cpp", "auto v = uniform_rand(9);\n"),
      "raw-random"));
}

TEST(LintUnguardedMutex, MutexWithoutCompanionFlagged) {
  const std::string src =
      "class Q {\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int items_;\n"
      "};\n";
  const auto vs = lint_content("src/registers/quorum.h", src);
  ASSERT_TRUE(has_rule(vs, "unguarded-mutex"));
  EXPECT_EQ(vs.front().line, 3);
}

TEST(LintUnguardedMutex, GuardedCompanionSatisfiesRule) {
  const std::string src =
      "class Q {\n"
      "  Mutex mu_;\n"
      "  int items_ GUARDED_BY(mu_);\n"
      "};\n";
  EXPECT_FALSE(has_rule(lint_content("src/registers/quorum.h", src),
                        "unguarded-mutex"));
}

TEST(LintUnguardedMutex, WrapperAndStdMutexBothMatched) {
  EXPECT_TRUE(has_rule(lint_content("src/net/x.h", "Mutex lone_;\n"),
                       "unguarded-mutex"));
  EXPECT_TRUE(has_rule(lint_content("src/net/x.h", "mutable std::mutex lone_;\n"),
                       "unguarded-mutex"));
}

TEST(LintResilienceLiteral, FlaggedOutsideConfig) {
  const auto vs =
      lint_content("src/registers/server.cpp", "size_t q = 4 * f + 1;\n");
  ASSERT_TRUE(has_rule(vs, "resilience-literal"));
  EXPECT_TRUE(has_rule(
      lint_content("src/codec/mds_code.cpp", "size_t k = n - 5*f;\n"),
      "resilience-literal"));
  EXPECT_TRUE(has_rule(lint_content("src/harness/sim_cluster.cpp",
                                    "return f * 3 + 1;\n"),
                       "resilience-literal"));
}

TEST(LintResilienceLiteral, ConfigHeaderExempt) {
  EXPECT_FALSE(has_rule(
      lint_content("src/registers/config.h", "return 4 * f + 1;\n"),
      "resilience-literal"));
}

TEST(LintResilienceLiteral, UnrelatedArithmeticNotFlagged) {
  EXPECT_FALSE(has_rule(
      lint_content("src/codec/rs.cpp", "size_t bytes = 4 * frames;\n"),
      "resilience-literal"));
  // Schedule constructions slice index ranges with 2*f; only the protocol
  // bound multipliers 3/4/5 are reserved for config.h.
  EXPECT_FALSE(has_rule(
      lint_content("src/harness/scenarios.cpp", "withhold_put(1, f, 2 * f);\n"),
      "resilience-literal"));
}

TEST(LintQuorumArithmetic, InlineQuorumFormsFlaggedOutsideConfig) {
  const auto vs = lint_content("src/registers/op_mux.cpp",
                               "size_t need = n - f;\n");
  ASSERT_TRUE(has_rule(vs, "quorum-arithmetic"));
  EXPECT_EQ(vs.front().line, 1);
  EXPECT_TRUE(has_rule(
      lint_content("src/registers/server.cpp",
                   "if (acks > (n + f) / 2) finish();\n"),
      "quorum-arithmetic"));
}

TEST(LintQuorumArithmetic, ConfigHeaderExempt) {
  EXPECT_FALSE(has_rule(
      lint_content("src/registers/config.h", "return n - f;\n"),
      "quorum-arithmetic"));
}

TEST(LintQuorumArithmetic, WordBoundariesRespected) {
  // Identifiers that merely end in n / start with f are not the protocol
  // parameters.
  EXPECT_FALSE(has_rule(
      lint_content("src/codec/rs.cpp", "size_t pad = len - frames;\n"),
      "quorum-arithmetic"));
  EXPECT_FALSE(has_rule(
      lint_content("src/codec/rs.cpp", "size_t mid = (len + fanout) / 2;\n"),
      "quorum-arithmetic"));
}

TEST(LintQuorumArithmetic, WaiverHonored) {
  EXPECT_FALSE(has_rule(
      lint_content("src/harness/scenarios.cpp",
                   "// index range, not a quorum size:"
                   " bftreg-lint: allow(quorum-arithmetic)\n"
                   "withhold(0, n - f, n);\n"),
      "quorum-arithmetic"));
}

TEST(LintUnboundedStore, TagKeyedMapInRegistersFlagged) {
  const auto vs = lint_content("src/registers/server.h",
                               "std::map<Tag, Bytes> log;\n");
  ASSERT_TRUE(has_rule(vs, "unbounded-store"));
  EXPECT_EQ(vs.front().line, 1);
}

TEST(LintUnboundedStore, CompactStoreHeaderAndOtherLayersExempt) {
  // The compact store header documents the replaced layout; other layers
  // (tests, harness) may model reference stores freely.
  EXPECT_FALSE(has_rule(
      lint_content("src/registers/object_store.h",
                   "// was: std::map<Tag, Bytes> log;\n"
                   "std::map<Tag, Bytes> reference;\n"),
      "unbounded-store"));
  EXPECT_FALSE(has_rule(
      lint_content("src/harness/sim_cluster.h", "std::map<Tag, Bytes> model;\n"),
      "unbounded-store"));
  // TaggedValue-keyed maps are a different (response-bounded) shape.
  EXPECT_FALSE(has_rule(
      lint_content("src/registers/protocol_ops.h",
                   "std::map<TaggedValue, size_t> witnesses_;\n"),
      "unbounded-store"));
}

TEST(LintUnboundedStore, WaiverHonored) {
  EXPECT_FALSE(has_rule(
      lint_content("src/registers/protocol_ops.h",
                   "// bounded by one round's responses:"
                   " bftreg-lint: allow(unbounded-store)\n"
                   "std::map<Tag, std::set<ProcessId>> tag_votes_;\n"),
      "unbounded-store"));
}

TEST(LintSocknetThread, ThreadOutsideEventLoopFlagged) {
  EXPECT_TRUE(has_rule(
      lint_content("src/socknet/tcp_network.cpp",
                   "std::thread reader([this] { read_loop(); });\n"),
      "socknet-thread"));
}

TEST(LintSocknetThread, EventLoopPoolExempt) {
  // The shard pool and the mailbox consumers are the transport's only
  // legitimate thread spawns.
  EXPECT_FALSE(has_rule(
      lint_content("src/socknet/event_loop.cpp",
                   "threads_.emplace_back(std::thread([this] { loop(); }));\n"),
      "socknet-thread"));
  EXPECT_FALSE(has_rule(
      lint_content("src/socknet/event_loop.h", "std::thread thread_;\n"),
      "socknet-thread"));
}

TEST(LintSocknetThread, OtherLayersNotCovered) {
  // src/runtime keeps its thread allowance; this rule is socknet-only.
  EXPECT_FALSE(has_rule(
      lint_content("src/runtime/thread_network.cpp",
                   "std::thread t([&] { pump(); });\n"),
      "socknet-thread"));
}

TEST(LintSocknetThread, WaiverHonored) {
  EXPECT_FALSE(has_rule(
      lint_content("src/socknet/tcp_network.cpp",
                   "// one-shot drain helper: bftreg-lint: allow(socknet-thread)\n"
                   "std::thread t([&] { drain(); });\n"),
      "socknet-thread"));
}

TEST(LintBlockingInLock, SyscallUnderMutexLockFlagged) {
  // The old transport's exact shape: framing + write_all inside the send
  // mutex, serializing every sender behind the kernel.
  const std::string src =
      "void send(const Bytes& frame) {\n"
      "  MutexLock lock(send_mu_);\n"
      "  if (!write_all(fd, frame.data(), frame.size())) reconnect();\n"
      "}\n";
  const auto vs = lint_content("src/socknet/tcp_network.cpp", src);
  ASSERT_TRUE(has_rule(vs, "blocking-in-lock"));
  EXPECT_EQ(vs.front().line, 3);
}

TEST(LintBlockingInLock, RawSyscallsAndNestedScopesFlagged) {
  EXPECT_TRUE(has_rule(
      lint_content("src/socknet/tcp_network.cpp",
                   "MutexLock lock(mu_);\n"
                   "ssize_t w = ::sendmsg(fd, &mh, MSG_NOSIGNAL);\n"),
      "blocking-in-lock"));
  // Held across a nested scope: still held at the call.
  EXPECT_TRUE(has_rule(
      lint_content("src/socknet/tcp_network.cpp",
                   "{\n"
                   "  MutexLock lock(conn_mu_);\n"
                   "  for (int fd : fds) {\n"
                   "    ::recv(fd, buf, sizeof(buf), 0);\n"
                   "  }\n"
                   "}\n"),
      "blocking-in-lock"));
}

TEST(LintBlockingInLock, OutsideLockScopeNotFlagged) {
  // Stage-under-lock, syscall-after-release: the pattern the rule demands.
  const std::string src =
      "std::deque<OutFrame> work;\n"
      "{\n"
      "  MutexLock lock(out_mu_);\n"
      "  work.swap(queue_);\n"
      "}\n"
      "::sendmsg(fd, &mh, MSG_NOSIGNAL);\n";
  EXPECT_FALSE(
      has_rule(lint_content("src/socknet/tcp_network.cpp", src), "blocking-in-lock"));
}

TEST(LintBlockingInLock, QualifiedMembersAndWaiverExempt) {
  // `Cluster::write(` is a member definition, not the write(2) syscall.
  EXPECT_FALSE(has_rule(
      lint_content("src/harness/thread_cluster.cpp",
                   "MutexLock lock(mu_);\n"
                   "WriteResult ThreadCluster::write(size_t w, Bytes v) {\n"),
      "blocking-in-lock"));
  EXPECT_FALSE(has_rule(
      lint_content("src/storage/wal.cpp",
                   "MutexLock lock(mu_);\n"
                   "// bftreg-lint: allow(blocking-in-lock) WAL must sync in order\n"
                   "::fsync(fd_);\n"),
      "blocking-in-lock"));
}

TEST(LintWaiver, SameLineAndPreviousLineWaive) {
  const std::string same =
      "std::mutex g;  // bftreg-lint: allow(unguarded-mutex) guards stderr\n";
  EXPECT_FALSE(has_rule(lint_content("src/common/x.cpp", same), "unguarded-mutex"));

  const std::string prev =
      "// bftreg-lint: allow(unguarded-mutex) guards stderr\n"
      "std::mutex g;\n";
  EXPECT_FALSE(has_rule(lint_content("src/common/x.cpp", prev), "unguarded-mutex"));
}

TEST(LintWaiver, WaiverIsRuleSpecific) {
  const std::string src =
      "// bftreg-lint: allow(raw-thread) wrong rule named\n"
      "std::mutex g;\n";
  EXPECT_TRUE(has_rule(lint_content("src/common/x.cpp", src), "unguarded-mutex"));
}

TEST(LintLockOrder, CollectsBeforeAndAfterEdges) {
  const std::string src =
      "class N {\n"
      "  Mutex a_ ACQUIRED_BEFORE(b_, c_);\n"
      "  Mutex b_;\n"
      "  std::mutex c_ ACQUIRED_AFTER(b_);\n"
      "};\n";
  const auto order = collect_lock_order(src);
  ASSERT_TRUE(order.count("a_"));
  EXPECT_TRUE(order.at("a_").count("b_"));
  EXPECT_TRUE(order.at("a_").count("c_"));
  ASSERT_TRUE(order.count("b_"));  // AFTER(b_) on c_ means b_ < c_
  EXPECT_TRUE(order.at("b_").count("c_"));
}

TEST(LintLockOrder, InversionInNestedScopeFlagged) {
  const std::string src =
      "Mutex a_ ACQUIRED_BEFORE(b_);\n"
      "Mutex b_;\n"
      "void f() {\n"
      "  MutexLock l1(b_);\n"
      "  MutexLock l2(a_);\n"
      "}\n";
  const auto vs = lint_content("src/net/x.cpp", src);
  ASSERT_TRUE(has_rule(vs, "lock-order"));
  for (const auto& v : vs) {
    if (v.rule == "lock-order") {
      EXPECT_EQ(v.line, 5);
    }
  }
}

TEST(LintLockOrder, DeclaredDirectionNotFlagged) {
  const std::string src =
      "Mutex a_ ACQUIRED_BEFORE(b_);\n"
      "Mutex b_;\n"
      "void f() {\n"
      "  MutexLock l1(a_);\n"
      "  MutexLock l2(b_);\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_content("src/net/x.cpp", src), "lock-order"));
}

TEST(LintLockOrder, SequentialScopesDoNotNest) {
  // The first lock's scope closes before the second acquisition: no hold.
  const std::string src =
      "Mutex a_ ACQUIRED_BEFORE(b_);\n"
      "Mutex b_;\n"
      "void f() {\n"
      "  { MutexLock l1(b_); }\n"
      "  { MutexLock l2(a_); }\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_content("src/net/x.cpp", src), "lock-order"));
}

TEST(LintLockOrder, MemberAccessNormalizedToBareName) {
  const std::string src =
      "Mutex gate_ ACQUIRED_BEFORE(mu);\n"
      "void f(Box* box) {\n"
      "  MutexLock l1(box->mu);\n"
      "  MutexLock l2(this->gate_);\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_content("src/net/x.cpp", src), "lock-order"));
}

TEST(LintLockOrder, CrossFileOrderViaExplicitMap) {
  // Edges declared in a header, inversion in the matching .cpp -- the
  // two-pass lint_tree wiring, exercised through the overload directly.
  const auto order = collect_lock_order("Mutex rng_mu_ ACQUIRED_BEFORE(sched_mu_);\n");
  const std::string cpp =
      "void N::stop() {\n"
      "  MutexLock l1(sched_mu_);\n"
      "  MutexLock l2(rng_mu_);\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint_content("src/runtime/n.cpp", cpp, order), "lock-order"));
  EXPECT_FALSE(has_rule(lint_content("src/runtime/n.cpp", cpp, LockOrder{}),
                        "lock-order"));
}

TEST(LintLockOrder, Waivable) {
  const std::string src =
      "Mutex a_ ACQUIRED_BEFORE(b_);\n"
      "Mutex b_;\n"
      "void f() {\n"
      "  MutexLock l1(b_);\n"
      "  // bftreg-lint: allow(lock-order) teardown holds both, documented\n"
      "  MutexLock l2(a_);\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint_content("src/net/x.cpp", src), "lock-order"));
}

TEST(LintFormat, CompilerStyleOutput) {
  const Violation v{"src/a.cpp", 7, "detach", "msg"};
  EXPECT_EQ(format(v), "src/a.cpp:7: [detach] msg");
}

// ---------------------------------------------------------------------------
// Whole-program passes (lint_program over a synthetic multi-file tree).
// ---------------------------------------------------------------------------

const Violation* find_rule(const std::vector<Violation>& vs,
                           const std::string& rule) {
  for (const auto& v : vs) {
    if (v.rule == rule) return &v;
  }
  return nullptr;
}

TEST(LintInterproceduralBlocking, TransitiveChainFlaggedAtCallSite) {
  // send() holds out_mu_ and calls flush(), which reaches ::sendmsg through
  // sendmsg_frames() -- two hops the single-file rule cannot see.
  const std::vector<SourceFile> files = {
      {"src/socknet/io.cpp",
       "ssize_t sendmsg_frames(int fd) {\n"
       "  return ::sendmsg(fd, &mh, 0);\n"
       "}\n"
       "void flush(int fd) {\n"
       "  sendmsg_frames(fd);\n"
       "}\n"},
      {"src/socknet/send.cpp",
       "void send(int fd) {\n"
       "  MutexLock lock(out_mu_);\n"
       "  flush(fd);\n"
       "}\n"},
  };
  const auto vs = lint_program(files);
  const Violation* v = find_rule(vs, "blocking-in-lock");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->file, "src/socknet/send.cpp");
  EXPECT_EQ(v->line, 3);  // the call site, not the distant syscall
  EXPECT_NE(v->message.find("flush -> sendmsg_frames -> ::sendmsg"),
            std::string::npos)
      << v->message;
}

TEST(LintInterproceduralBlocking, ReleasedBeforeCallNotFlagged) {
  // The scheduler-loop hand-off: guard.unlock() before the call, re-lock
  // after. The chain exists but the lock is not held across it.
  const std::vector<SourceFile> files = {
      {"src/runtime/loop.cpp",
       "void route(int fd) { ::write(fd, buf, n); }\n"
       "void loop(int fd) {\n"
       "  MutexLock lock(sched_mu_);\n"
       "  lock.unlock();\n"
       "  route(fd);\n"
       "  lock.lock();\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(lint_program(files), "blocking-in-lock"));
}

TEST(LintLockCycle, ThreeLockCycleAcrossFilesReported) {
  // a_ < b_ and b_ < c_ are declared in two headers; code observes c_
  // taken before a_, closing a three-lock cycle no single file shows.
  const std::vector<SourceFile> files = {
      {"src/net/a.h", "Mutex a_ ACQUIRED_BEFORE(b_);\nMutex b_;\n"},
      {"src/net/b.h", "Mutex b2_ ACQUIRED_BEFORE(c_);\nMutex c_;\n"
                      "Mutex b_ ACQUIRED_BEFORE(c_);\n"},
      {"src/net/use.cpp",
       "void f() {\n"
       "  MutexLock l1(c_);\n"
       "  MutexLock l2(a_);\n"
       "}\n"},
  };
  const auto vs = lint_program(files);
  const Violation* v = find_rule(vs, "lock-cycle");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("a_"), std::string::npos);
  EXPECT_NE(v->message.find("b_"), std::string::npos);
  EXPECT_NE(v->message.find("c_"), std::string::npos);
}

TEST(LintLockCycle, ConsistentOrderNotReported) {
  const std::vector<SourceFile> files = {
      {"src/net/a.h", "Mutex a_ ACQUIRED_BEFORE(b_);\nMutex b_;\n"},
      {"src/net/use.cpp",
       "void f() {\n"
       "  MutexLock l1(a_);\n"
       "  MutexLock l2(b_);\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(lint_program(files), "lock-cycle"));
}

TEST(LintLockOrderUndeclared, ObservedNestingWithoutDeclarationFlagged) {
  const std::vector<SourceFile> files = {
      {"src/net/use.cpp",
       "void f() {\n"
       "  MutexLock l1(a_);\n"
       "  MutexLock l2(b_);\n"
       "}\n"},
  };
  const auto vs = lint_program(files);
  const Violation* v = find_rule(vs, "lock-order-undeclared");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->line, 3);
  EXPECT_NE(v->message.find("'a_' then 'b_'"), std::string::npos) << v->message;
}

TEST(LintLockOrderUndeclared, DeclaredEdgeCoversObservation) {
  // The declared edge (even transitively, a_ < b_ < c_) covers the
  // observed a_-then-c_ nesting: nothing to report.
  const std::vector<SourceFile> files = {
      {"src/net/a.h",
       "Mutex a_ ACQUIRED_BEFORE(b_);\nMutex b_ ACQUIRED_BEFORE(c_);\n"
       "Mutex c_;\n"},
      {"src/net/use.cpp",
       "void f() {\n"
       "  MutexLock l1(a_);\n"
       "  MutexLock l2(c_);\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(lint_program(files), "lock-order-undeclared"));
}

TEST(LintLockOrderUndeclared, InterproceduralAcquisitionFlagged) {
  // f holds big_mu_ and calls bump(), which takes counter_mu_ -- an
  // acquisition edge that exists only through the call graph.
  const std::vector<SourceFile> files = {
      {"src/net/metrics.cpp",
       "void bump() {\n"
       "  MutexLock lock(counter_mu_);\n"
       "  ++n_;\n"
       "}\n"},
      {"src/net/send.cpp",
       "void f() {\n"
       "  MutexLock lock(big_mu_);\n"
       "  bump();\n"
       "}\n"},
  };
  const auto vs = lint_program(files);
  const Violation* v = find_rule(vs, "lock-order-undeclared");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->file, "src/net/send.cpp");
  EXPECT_NE(v->message.find("bump"), std::string::npos);
}

TEST(LintSerdeSymmetry, ReorderedDeserializeFieldCaught) {
  // The acceptance-criteria fixture: deserialize() reads the two u32
  // fields in the reverse of the order serialize() wrote them.
  const std::vector<SourceFile> files = {
      {"src/registers/msg.cpp",
       "Bytes Msg::serialize() const {\n"
       "  Serializer s;\n"
       "  s.put_u32(object);\n"
       "  s.put_u64(seq);\n"
       "  s.put_bytes(value);\n"
       "  return s.take();\n"
       "}\n"
       "std::optional<Msg> Msg::deserialize(const Bytes& in) {\n"
       "  Deserializer d(in);\n"
       "  Msg m;\n"
       "  m.seq = d.get_u64();\n"
       "  m.object = d.get_u32();\n"
       "  m.value = d.get_bytes();\n"
       "  return m;\n"
       "}\n"},
  };
  const auto vs = lint_program(files);
  const Violation* v = find_rule(vs, "serde-symmetry");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->line, 11);  // first divergent read
  EXPECT_NE(v->message.find("put_u32"), std::string::npos) << v->message;
  EXPECT_NE(v->message.find("get_u64"), std::string::npos) << v->message;
}

TEST(LintSerdeSymmetry, MissingTrailingReadCaught) {
  // Asymmetry in the other direction: the reader stops one field short.
  const std::vector<SourceFile> files = {
      {"src/registers/blob.cpp",
       "void encode_blob(Serializer& s, const Blob& b) {\n"
       "  s.put_u64(b.seq);\n"
       "  s.put_tag(b.tag);\n"
       "  s.put_bytes(b.data);\n"
       "}\n"
       "Blob decode_blob(Deserializer& d) {\n"
       "  Blob b;\n"
       "  b.seq = d.get_u64();\n"
       "  b.tag = d.get_tag();\n"
       "  return b;\n"
       "}\n"},
  };
  const auto vs = lint_program(files);
  const Violation* v = find_rule(vs, "serde-symmetry");
  ASSERT_NE(v, nullptr);
  EXPECT_NE(v->message.find("put_bytes"), std::string::npos) << v->message;
  EXPECT_NE(v->message.find("no counterpart"), std::string::npos) << v->message;
}

TEST(LintSerdeSymmetry, SymmetricPairAndWidthClassesClean) {
  // bool is u8-width on the wire; bytes/bytes_view/string are one
  // length-prefixed class -- none of these count as drift.
  const std::vector<SourceFile> files = {
      {"src/registers/msg.cpp",
       "Bytes Msg::encode() const {\n"
       "  Serializer s;\n"
       "  s.put_bool(flag);\n"
       "  s.put_bytes(value);\n"
       "  s.put_string(name);\n"
       "  return s.take();\n"
       "}\n"
       "std::optional<Msg> Msg::parse(const Bytes& in) {\n"
       "  Deserializer d(in);\n"
       "  Msg m;\n"
       "  m.flag = d.get_u8() != 0;\n"
       "  m.value = d.get_bytes_view();\n"
       "  m.name = d.get_string();\n"
       "  return m;\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(lint_program(files), "serde-symmetry"));
}

TEST(LintUncheckedResult, DiscardedResultReturnFlagged) {
  const std::vector<SourceFile> files = {
      {"src/registers/config.cpp",
       "Result<Config> build_for(int n) {\n"
       "  return Config{n};\n"
       "}\n"},
      {"src/harness/use.cpp",
       "void setup(Builder& b) {\n"
       "  b.build_for(5);\n"
       "}\n"},
  };
  const auto vs = lint_program(files);
  const Violation* v = find_rule(vs, "unchecked-result");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->file, "src/harness/use.cpp");
  EXPECT_EQ(v->line, 2);
}

TEST(LintUncheckedResult, ConsumedResultsNotFlagged) {
  const std::vector<SourceFile> files = {
      {"src/registers/config.cpp",
       "Result<Config> build_for(int n) {\n"
       "  return Config{n};\n"
       "}\n"},
      {"src/harness/use.cpp",
       "Result<Config> forward(Builder& b) {\n"
       "  auto r = b.build_for(1);\n"
       "  if (b.build_for(2).ok()) use();\n"
       "  (void)b.build_for(3);\n"
       "  return b.build_for(4);\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(lint_program(files), "unchecked-result"));
}

TEST(LintUncheckedResult, PlainReturnTypesNotFlagged) {
  // WriteResult is a plain struct; only Result<T> carries an error that
  // must be checked.
  const std::vector<SourceFile> files = {
      {"src/registers/w.cpp",
       "WriteResult write_now(int n) {\n"
       "  return WriteResult{n};\n"
       "}\n"},
      {"src/harness/use.cpp",
       "void go(Client& c) {\n"
       "  c.write_now(5);\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(lint_program(files), "unchecked-result"));
}

TEST(LintProgram, WholeProgramFindingsAreWaivable) {
  const std::vector<SourceFile> files = {
      {"src/net/use.cpp",
       "void f() {\n"
       "  MutexLock l1(a_);\n"
       "  // bftreg-lint: allow(lock-order-undeclared) teardown-only nesting\n"
       "  MutexLock l2(b_);\n"
       "}\n"},
  };
  EXPECT_FALSE(has_rule(lint_program(files), "lock-order-undeclared"));
}

TEST(LintAtomicInRing, ImplicitOrderFlaggedInScope) {
  EXPECT_TRUE(has_rule(
      lint_content("src/runtime/mailbox.h", "bool v = stopped_.load();\n"),
      "atomic-in-ring"));
  EXPECT_TRUE(has_rule(lint_content("src/common/mpsc_ring.h",
                                    "slot.seq.store(pos + 1);\n"),
                       "atomic-in-ring"));
  EXPECT_TRUE(has_rule(
      lint_content("src/runtime/thread_network.cpp",
                   "next_seq_.fetch_add(1);\n"),
      "atomic-in-ring"));
}

TEST(LintAtomicInRing, ExplicitOrderSatisfiesRule) {
  EXPECT_FALSE(has_rule(
      lint_content("src/runtime/mailbox.h",
                   "bool v = stopped_.load(std::memory_order_acquire);\n"),
      "atomic-in-ring"));
  EXPECT_FALSE(has_rule(
      lint_content("src/common/mpsc_ring.h",
                   "slot.seq.store(pos + 1, std::memory_order_release);\n"),
      "atomic-in-ring"));
  EXPECT_FALSE(has_rule(
      lint_content(
          "src/runtime/thread_network.cpp",
          "head_.compare_exchange_weak(pos, pos + 1,\n"
          "                            std::memory_order_relaxed,\n"
          "                            std::memory_order_relaxed);\n"),
      "atomic-in-ring"));
}

TEST(LintAtomicInRing, MultiLineCallScannedAcrossWrap) {
  // The order argument lands on a later line; paren-balanced look-ahead
  // must find it before flagging.
  EXPECT_FALSE(has_rule(
      lint_content("src/runtime/mailbox.h",
                   "spilled_.store(true,\n"
                   "               std::memory_order_release);\n"),
      "atomic-in-ring"));
  // Still flagged when the wrapped call never names an order.
  EXPECT_TRUE(has_rule(lint_content("src/runtime/mailbox.h",
                                    "spilled_.store(\n"
                                    "    some_long_expression_value);\n"),
               "atomic-in-ring"));
}

TEST(LintAtomicInRing, OutOfScopeAndNonAtomicNamesExempt) {
  // Same code outside the delivery path: other layers may take the
  // seq_cst default.
  EXPECT_FALSE(has_rule(
      lint_content("src/socknet/tcp_network.cpp", "running_.load();\n"),
      "atomic-in-ring"));
  EXPECT_FALSE(has_rule(
      lint_content("src/registers/server.cpp", "puts_applied_.fetch_add(1);\n"),
      "atomic-in-ring"));
  // Non-atomic member names that merely contain the words are untouched.
  EXPECT_FALSE(has_rule(
      lint_content("src/runtime/thread_network.cpp",
                   "object_store(object);\nreload(x);\n"),
      "atomic-in-ring"));
}

TEST(LintAtomicInRing, WaiverHonored) {
  EXPECT_FALSE(has_rule(
      lint_content("src/runtime/mailbox.h",
                   "// bftreg-lint: allow(atomic-in-ring) -- ordering moot\n"
                   "bool v = stopped_.load();\n"),
      "atomic-in-ring"));
}

TEST(LintSarif, GoldenDocument) {
  const std::vector<Violation> vs = {
      {"src/socknet/tcp_network.cpp", 42, "blocking-in-lock",
       "blocking call '::sendmsg' while 'out_mu' is held"},
  };
  const std::string doc = to_sarif(vs);
  const std::string expected =
      "{\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [{\n"
      "    \"tool\": {\"driver\": {\n"
      "      \"name\": \"bftreg_lint\",\n"
      "      \"informationUri\": \"docs/ANALYSIS.md\",\n"
      "      \"rules\": [\n"
      "        {\"id\": \"raw-thread\", \"shortDescription\": {\"text\": "
      "\"std::thread outside the runtime/transport/harness layers\"}},\n"
      "        {\"id\": \"detach\", \"shortDescription\": {\"text\": "
      "\"detached thread outlives its transport\"}},\n"
      "        {\"id\": \"raw-random\", \"shortDescription\": {\"text\": "
      "\"unseeded randomness breaks replayability\"}},\n"
      "        {\"id\": \"unguarded-mutex\", \"shortDescription\": {\"text\": "
      "\"mutex member without a GUARDED_BY companion\"}},\n"
      "        {\"id\": \"resilience-literal\", \"shortDescription\": "
      "{\"text\": \"resilience bound arithmetic outside config.h\"}},\n"
      "        {\"id\": \"lock-order\", \"shortDescription\": {\"text\": "
      "\"nested acquisition inverts a declared lock order\"}},\n"
      "        {\"id\": \"blocking-in-lock\", \"shortDescription\": {\"text\": "
      "\"call chain from a MutexLock scope to a blocking syscall\"}},\n"
      "        {\"id\": \"lock-cycle\", \"shortDescription\": {\"text\": "
      "\"cycle in the global declared+observed lock-order graph\"}},\n"
      "        {\"id\": \"lock-order-undeclared\", \"shortDescription\": "
      "{\"text\": \"observed acquisition order with no declared edge\"}},\n"
      "        {\"id\": \"serde-symmetry\", \"shortDescription\": {\"text\": "
      "\"serialize/deserialize wire formats drifted apart\"}},\n"
      "        {\"id\": \"unchecked-result\", \"shortDescription\": {\"text\": "
      "\"discarded Result<T> return value\"}},\n"
      "        {\"id\": \"atomic-in-ring\", \"shortDescription\": {\"text\": "
      "\"implicit seq_cst atomic access in the lock-free delivery path\"}},\n"
      "        {\"id\": \"quorum-arithmetic\", \"shortDescription\": {\"text\": "
      "\"quorum-sized arithmetic outside config.h\"}},\n"
      "        {\"id\": \"socknet-thread\", \"shortDescription\": {\"text\": "
      "\"std::thread in src/socknet outside the event-loop shard pool\"}},\n"
      "        {\"id\": \"unbounded-store\", \"shortDescription\": {\"text\": "
      "\"Tag-keyed std::map outside the compact object store\"}}\n"
      "      ]\n"
      "    }},\n"
      "    \"results\": [\n"
      "      {\"ruleId\": \"blocking-in-lock\", \"ruleIndex\": 6, \"level\": "
      "\"error\", \"message\": {\"text\": \"blocking call '::sendmsg' while "
      "'out_mu' is held\"}, \"locations\": [{\"physicalLocation\": "
      "{\"artifactLocation\": {\"uri\": \"src/socknet/tcp_network.cpp\"}, "
      "\"region\": {\"startLine\": 42}}}]}\n"
      "    ]\n"
      "  }]\n"
      "}\n";
  EXPECT_EQ(doc, expected);
}

TEST(LintSarif, EmptyRunAndEscaping) {
  EXPECT_NE(to_sarif({}).find("\"results\": []"), std::string::npos);
  const std::vector<Violation> vs = {
      {"src/a.cpp", 1, "detach", "quote \" backslash \\ tab\t"}};
  const std::string doc = to_sarif(vs);
  EXPECT_NE(doc.find("quote \\\" backslash \\\\ tab\\t"), std::string::npos);
}

// The real tree must be clean -- this is the same check the ctest
// registration of the bftreg_lint binary performs, kept here too so a
// plain `ctest -R lint` covers both the rules and the tree.
TEST(LintTree, RepoSourcesAreClean) {
  const char* root = std::getenv("BFTREG_REPO_ROOT");
  if (root == nullptr) GTEST_SKIP() << "BFTREG_REPO_ROOT not set";
  const auto vs = lint_tree(root);
  for (const auto& v : vs) ADD_FAILURE() << format(v);
}

}  // namespace
}  // namespace bftreg::lint
