// Tests for the library's extensions beyond the paper's pseudocode, and
// for edge schedules the paper only discusses in prose:
//   - history garbage collection (SystemConfig::max_history) and its
//     interaction with the regularity fixes,
//   - the atomicity checker and BSR's (expected) non-atomicity,
//   - BCSR with multiple non-concurrent writers (paper footnote 2),
//   - writer crash mid-multicast (the all-or-none gap of Remark 1),
//   - StorePolicy::kMaxOnly (Fig. 3 verbatim) across protocols.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "checker/consistency.h"
#include "harness/scenarios.h"
#include "harness/sim_cluster.h"
#include "workload/workload.h"

namespace bftreg::harness {
namespace {

using checker::CheckOptions;
using checker::check_atomicity;
using checker::check_regularity;
using checker::check_safety;
using registers::ProtocolVariant;

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

ClusterOptions base_options(ProtocolVariant p, size_t n, size_t f, uint64_t seed = 1) {
  ClusterOptions o;
  o.protocol = p;
  o.config.n = n;
  o.config.f = f;
  o.num_writers = 2;
  o.num_readers = 2;
  o.seed = seed;
  return o;
}

// ------------------------------------------------------------ history GC

TEST(HistoryGcTest, ServerPrunesToBudget) {
  ClusterOptions o = base_options(ProtocolVariant::kBsr, 5, 1);
  o.config.max_history = 3;
  SimCluster cluster(o);
  for (int i = 0; i < 10; ++i) cluster.write(0, val("v" + std::to_string(i)));
  cluster.sim().run_until_idle();
  for (size_t s = 0; s < 5; ++s) {
    EXPECT_LE(cluster.server(s)->store().size(), 3u);
    EXPECT_EQ(cluster.server(s)->max_value(), val("v9"));
  }
}

TEST(HistoryGcTest, BsrUnaffectedByAggressiveGc) {
  ClusterOptions o = base_options(ProtocolVariant::kBsr, 5, 1, 3);
  o.config.max_history = 1;  // keep only the newest pair
  SimCluster cluster(o);
  cluster.set_byzantine(2, adversary::StrategyKind::kStale);
  for (int i = 0; i < 8; ++i) {
    cluster.write(i % 2, val("g" + std::to_string(i)));
    EXPECT_EQ(cluster.read(i % 2).value, val("g" + std::to_string(i)));
  }
  CheckOptions copts;
  copts.strict_validity = true;
  EXPECT_TRUE(check_safety(cluster.recorder().ops(), copts).ok);
}

TEST(HistoryGcTest, AggressiveGcBreaksTheHistoryRegularityFix) {
  // With max_history = 1 the history read degenerates to the plain BSR
  // read, and the Theorem 3 schedule defeats it again: history-based
  // regularity NEEDS the history.
  ClusterOptions o = base_options(ProtocolVariant::kBsrHistory, 5, 1, 42);
  o.config.max_history = 1;
  o.num_writers = 5;
  o.num_readers = 1;
  SimCluster cluster(o);
  const auto r = run_theorem3_schedule(cluster);
  EXPECT_EQ(r.value, Bytes{}) << "slid back to v0, like plain BSR";
  CheckOptions copts;
  EXPECT_FALSE(check_regularity(cluster.recorder().ops(), copts).ok);
}

TEST(HistoryGcTest, ModestGcPreservesTheoremThreeFix) {
  // The Thm. 3 schedule only needs the last completed write to survive one
  // extra in-progress write per server: budget 2 suffices here.
  ClusterOptions o = base_options(ProtocolVariant::kBsrHistory, 5, 1, 42);
  o.config.max_history = 2;
  o.num_writers = 5;
  o.num_readers = 1;
  SimCluster cluster(o);
  const auto r = run_theorem3_schedule(cluster);
  EXPECT_EQ(r.value, val("v1"));
}

// ------------------------------------------------------------- atomicity

TEST(AtomicityCheckerTest, CrossReaderInversionFailsAtomicityOnly) {
  checker::ExecutionRecorder rec;
  const uint64_t w1 = rec.begin_write(ProcessId::writer(0), 0, val("a"));
  rec.complete_write(w1, 10, Tag{1, ProcessId::writer(0)});
  const uint64_t w2 = rec.begin_write(ProcessId::writer(0), 20, val("b"));
  // still in progress at both reads
  const uint64_t r1 = rec.begin_read(ProcessId::reader(0), 30);
  rec.complete_read(r1, 40, val("b"), Tag{2, ProcessId::writer(0)});
  const uint64_t r2 = rec.begin_read(ProcessId::reader(1), 50);
  rec.complete_read(r2, 60, val("a"), Tag{1, ProcessId::writer(0)});
  (void)w2;

  CheckOptions copts;
  EXPECT_TRUE(check_regularity(rec.ops(), copts).ok);
  const auto atom = check_atomicity(rec.ops(), copts);
  EXPECT_FALSE(atom.ok);
  EXPECT_NE(atom.violation.find("cross-reader"), std::string::npos);
}

TEST(AtomicityCheckerTest, SequentialHistoryIsAtomic) {
  checker::ExecutionRecorder rec;
  const uint64_t w1 = rec.begin_write(ProcessId::writer(0), 0, val("a"));
  rec.complete_write(w1, 10, Tag{1, ProcessId::writer(0)});
  const uint64_t r1 = rec.begin_read(ProcessId::reader(0), 20);
  rec.complete_read(r1, 30, val("a"), Tag{1, ProcessId::writer(0)});
  CheckOptions copts;
  EXPECT_TRUE(check_atomicity(rec.ops(), copts).ok);
}

TEST(AtomicityTest, BsrIsProvablyNotAtomic) {
  // The schedule: w(v1) completes; w(v2) reaches only servers 0 and 1;
  // reader 0 (quorum includes both) returns v2 with f+1 witnesses; then
  // reader 1 (server 0's reply delayed) sees v2 only once and returns v1.
  // Regular -- v2's write is still in progress -- but not atomic. This is
  // why the paper targets safety/regularity: semi-fast MWMR *atomicity* is
  // impossible (Georgiou et al. [13]).
  ClusterOptions o = base_options(ProtocolVariant::kBsr, 5, 1, 9);
  SimCluster cluster(o);
  cluster.start();
  cluster.write(0, val("v1"));
  cluster.sim().run_until_idle();

  auto& delay = cluster.sim().delay_model();
  delay.set_hook([](const net::Envelope& env) -> std::optional<TimeNs> {
    auto msg = registers::RegisterMessage::parse(env.payload);
    if (msg && msg->type == registers::MsgType::kPutData && env.to.is_server() &&
        env.to.index >= 2) {
      return TimeNs{1'000'000'000};  // v2 reaches only s0, s1
    }
    return std::nullopt;
  });
  const uint64_t wid = cluster.start_write(1, val("v2"));
  cluster.sim().run_until_time(cluster.sim().now() + 100'000);
  EXPECT_FALSE(cluster.op_done(wid));  // in progress, as scripted

  // Reader 0: server 4's reply is delayed so its quorum is s0..s3 --
  // v2 has f+1 = 2 witnesses and the highest tag.
  delay.set_hook([](const net::Envelope& env) -> std::optional<TimeNs> {
    auto msg = registers::RegisterMessage::parse(env.payload);
    if (msg && msg->type == registers::MsgType::kPutData && env.to.is_server() &&
        env.to.index >= 2) {
      return TimeNs{1'000'000'000};
    }
    if (env.from == ProcessId::server(4) && env.to == ProcessId::reader(0)) {
      return TimeNs{1'000'000'000};
    }
    return std::nullopt;
  });
  const auto r1 = cluster.read(0);
  EXPECT_EQ(r1.value, val("v2"));

  // Reader 1: server 0 and 1 replies delayed; quorum = s2..s4 + ...
  delay.set_hook([](const net::Envelope& env) -> std::optional<TimeNs> {
    auto msg = registers::RegisterMessage::parse(env.payload);
    if (msg && msg->type == registers::MsgType::kPutData && env.to.is_server() &&
        env.to.index >= 2) {
      return TimeNs{1'000'000'000};
    }
    if (env.from == ProcessId::server(0) && env.to == ProcessId::reader(1)) {
      return TimeNs{1'000'000'000};
    }
    return std::nullopt;
  });
  const auto r2 = cluster.read(1);
  EXPECT_EQ(r2.value, val("v1"));

  CheckOptions copts;
  EXPECT_TRUE(check_regularity(cluster.recorder().ops(), copts).ok);
  EXPECT_FALSE(check_atomicity(cluster.recorder().ops(), copts).ok);
}

// ------------------------------------- BCSR multiple sequential writers

TEST(BcsrMultiWriterTest, NonConcurrentWritersAreFine) {
  // Paper footnote 2: BCSR "can tolerate multiple writers as long as
  // writes are not concurrent".
  ClusterOptions o = base_options(ProtocolVariant::kBcsr, 6, 1, 21);
  o.num_writers = 3;
  SimCluster cluster(o);
  for (int i = 0; i < 9; ++i) {
    const Bytes payload = workload::make_value(4, i, 77);
    cluster.write(i % 3, payload);  // rotate writers, never concurrent
    EXPECT_EQ(cluster.read(i % 2).value, payload) << "round " << i;
  }
}

// ------------------------------------------- writer crash mid-multicast

TEST(WriterCrashTest, PartialPutDataKeepsBsrSafe) {
  ClusterOptions o = base_options(ProtocolVariant::kBsr, 5, 1, 17);
  SimCluster cluster(o);
  cluster.start();
  cluster.write(0, val("stable"));
  cluster.sim().run_until_idle();

  // Writer 1's PUT-DATA is placed only toward s0, s1; then the writer
  // crashes (the model allows crashing after placing a subset).
  cluster.sim().delay_model().set_hook(
      [](const net::Envelope& env) -> std::optional<TimeNs> {
        auto msg = registers::RegisterMessage::parse(env.payload);
        if (msg && msg->type == registers::MsgType::kPutData &&
            env.from == ProcessId::writer(1) && env.to.is_server() &&
            env.to.index >= 2) {
          return TimeNs{1'000'000'000};  // never placed before the crash
        }
        return std::nullopt;
      });
  const uint64_t wid = cluster.start_write(1, val("orphan"));
  cluster.sim().run_until_time(cluster.sim().now() + 50'000);
  cluster.crash_writer(1);
  EXPECT_FALSE(cluster.op_done(wid));

  // Reads may return the stable value or the orphaned one (both legal:
  // the orphan began before the read and, being incomplete, cannot be
  // superseded); safety must hold either way.
  for (int i = 0; i < 4; ++i) {
    const auto r = cluster.read(i % 2);
    EXPECT_TRUE(r.value == val("stable") || r.value == val("orphan"));
  }
  CheckOptions copts;
  copts.strict_validity = true;
  const auto res = check_safety(cluster.recorder().ops(), copts);
  EXPECT_TRUE(res.ok) << res.violation;
}

// A Byzantine server that stores puts and reports tags honestly but lies
// about the value in the 2R get-data phase.
class ValueLiar final : public adversary::Strategy {
 public:
  void handle(const net::Envelope& env, adversary::ServerContext& ctx) override {
    auto msg = registers::RegisterMessage::parse(env.payload);
    if (!msg) return;
    registers::RegisterMessage resp;
    resp.op_id = msg->op_id;
    resp.object = msg->object;
    switch (msg->type) {
      case registers::MsgType::kPutData:
        store_[msg->tag] = msg->value;
        resp.type = registers::MsgType::kAck;
        resp.tag = msg->tag;
        break;
      case registers::MsgType::kQueryTagHistory: {
        resp.type = registers::MsgType::kTagHistoryResp;
        resp.tags.push_back(Tag::initial());
        for (const auto& [t, v] : store_) resp.tags.push_back(t);
        break;
      }
      case registers::MsgType::kQueryDataAt:
        resp.type = registers::MsgType::kDataAtResp;
        resp.tag = msg->tag;
        resp.value = Bytes{0xBA, 0xD1};  // never matches the honest value
        break;
      default:
        return;
    }
    ctx.send(env.from, resp);
  }

 private:
  std::map<Tag, Bytes> store_;
};

TEST(WriterCrashTest, TwoRoundReadCanStallAfterPartialMulticast) {
  // The documented liveness caveat of the 2R variant (TwoRoundReadOp in
  // protocol_ops.h, paper Remark 1): a write that crashed after reaching exactly one
  // honest server plus a Byzantine one leaves a tag with f+1 histories
  // behind it but only ONE honest value-holder. The 2R read targets that
  // tag and waits for f+1 matching values that can never come -- the
  // precise all-or-none gap reliable broadcast would have closed.
  ClusterOptions o = base_options(ProtocolVariant::kBsrTwoRound, 5, 1, 23);
  o.num_readers = 1;
  SimCluster cluster(o);
  cluster.set_byzantine(0, std::make_unique<ValueLiar>());
  cluster.start();

  cluster.sim().delay_model().set_hook(
      [](const net::Envelope& env) -> std::optional<TimeNs> {
        auto msg = registers::RegisterMessage::parse(env.payload);
        if (msg && msg->type == registers::MsgType::kPutData &&
            env.to.is_server() && env.to.index >= 2) {
          // In-flight for longer than the whole test horizon: models the
          // crashed writer's PUT-DATA that has not (yet, or ever) been
          // delivered to the other honest servers.
          return TimeNs{1'000'000'000};
        }
        // Pin the reader's phase-1 quorum to s0..s3 so both holders of the
        // orphaned tag are inside it and the tag becomes the read target.
        if (env.from == ProcessId::server(4) && env.to.role == Role::kReader) {
          return TimeNs{1'000'000'000};
        }
        return std::nullopt;
      });
  const uint64_t wid = cluster.start_write(0, val("doomed"));
  cluster.sim().run_until_time(cluster.sim().now() + 50'000);
  cluster.crash_writer(0);
  EXPECT_FALSE(cluster.op_done(wid));

  const uint64_t rid = cluster.start_read(0);
  cluster.sim().run_until_time(cluster.sim().now() + 500'000);
  EXPECT_FALSE(cluster.op_done(rid))
      << "the 2R read must still be waiting: one honest holder cannot "
         "produce f+1 matching values";
  // (Had the writer crashed *before* placing those sends, the wait would
  // be forever; with reliable broadcast, never. That asymmetry is the
  // paper's Remark 1.)
}

// ---------------------------------------------- StorePolicy::kMaxOnly

struct PolicyParam {
  ProtocolVariant protocol;
  size_t n;
  size_t f;
};

class MaxOnlyPolicyTest : public ::testing::TestWithParam<PolicyParam> {};

TEST_P(MaxOnlyPolicyTest, FigureThreeVerbatimPolicyIsSafe) {
  const auto [protocol, n, f] = GetParam();
  ClusterOptions o = base_options(protocol, n, f, 29);
  o.config.store_policy = registers::StorePolicy::kMaxOnly;
  SimCluster cluster(o);
  cluster.set_byzantine(n - 1, adversary::StrategyKind::kFabricate);
  for (int i = 0; i < 6; ++i) {
    const Bytes payload = workload::make_value(6, i, 40);
    cluster.write(0, payload);
    EXPECT_EQ(cluster.read(0).value, payload);
  }
  CheckOptions copts;
  copts.reads_report_tags = registers::reads_report_tags(protocol);
  copts.strict_validity = protocol != ProtocolVariant::kBcsr;
  const auto res = check_safety(cluster.recorder().ops(), copts);
  EXPECT_TRUE(res.ok) << res.violation;
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, MaxOnlyPolicyTest,
    ::testing::Values(PolicyParam{ProtocolVariant::kBsr, 5, 1},
                      PolicyParam{ProtocolVariant::kBsr, 9, 2},
                      PolicyParam{ProtocolVariant::kBcsr, 6, 1},
                      PolicyParam{ProtocolVariant::kBsrHistory, 5, 1},
                      PolicyParam{ProtocolVariant::kBsrTwoRound, 5, 1}),
                         [](const auto& info) {
                           std::string name = to_string(info.param.protocol);
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name + "_n" + std::to_string(info.param.n);
                         });

}  // namespace
}  // namespace bftreg::harness
