// Direct unit tests for each Byzantine strategy: what exactly does each
// adversary send back? (The integration suites verify protocols *survive*
// them; these verify the strategies behave as documented, so a test
// failure there can be attributed correctly.)
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <set>
#include <string>

#include "adversary/byzantine_server.h"
#include "adversary/churn.h"
#include "common/serde.h"
#include "harness/scenarios.h"
#include "harness/sim_cluster.h"
#include "sim/simulator.h"

namespace bftreg::adversary {
namespace {

using registers::MsgType;
using registers::RegisterMessage;

class Probe final : public net::IProcess {
 public:
  void on_message(const net::Envelope& env) override {
    raw.push_back(env.payload.to_bytes());
    if (auto m = RegisterMessage::parse(env.payload)) parsed.push_back(*m);
  }
  std::vector<Bytes> raw;
  std::vector<RegisterMessage> parsed;
};

class AdversaryFixture : public ::testing::Test {
 protected:
  AdversaryFixture() : sim_(sim::SimConfig::with_fixed_delay(1, 10)) {
    sim_.add_process(client_, &probe_);
  }

  ByzantineServer* make(StrategyKind kind, uint64_t seed = 7) {
    ServerContext ctx;
    ctx.self = ProcessId::server(0);
    ctx.config.n = 5;
    ctx.config.f = 1;
    ctx.transport = &sim_;
    ctx.initial = Bytes{'i', 'n', 'i', 't'};
    ctx.rng = Rng(seed);
    server_ = std::make_unique<ByzantineServer>(std::move(ctx),
                                                make_strategy(kind, seed));
    sim_.add_process(ProcessId::server(0), server_.get());
    return server_.get();
  }

  void send(MsgType type, uint64_t op = 1, Tag tag = {}, Bytes value = {}) {
    RegisterMessage m;
    m.type = type;
    m.op_id = op;
    m.tag = tag;
    m.value = std::move(value);
    sim_.send(client_, ProcessId::server(0), m.encode());
    sim_.run_until_idle();
  }

  sim::Simulator sim_;
  ProcessId client_ = ProcessId::reader(0);
  Probe probe_;
  std::unique_ptr<ByzantineServer> server_;
};

TEST_F(AdversaryFixture, SilentNeverResponds) {
  make(StrategyKind::kSilent);
  send(MsgType::kQueryTag);
  send(MsgType::kQueryData);
  send(MsgType::kPutData, 2, Tag{1, ProcessId::writer(0)}, Bytes{'x'});
  EXPECT_TRUE(probe_.raw.empty());
}

TEST_F(AdversaryFixture, StaleAlwaysAnswersInitialState) {
  make(StrategyKind::kStale);
  send(MsgType::kPutData, 1, Tag{9, ProcessId::writer(0)}, Bytes{'n', 'e', 'w'});
  send(MsgType::kQueryData, 2);
  ASSERT_EQ(probe_.parsed.size(), 2u);
  EXPECT_EQ(probe_.parsed[0].type, MsgType::kAck);  // acks without storing
  EXPECT_EQ(probe_.parsed[1].type, MsgType::kDataResp);
  EXPECT_EQ(probe_.parsed[1].tag, Tag::initial());
  EXPECT_EQ(probe_.parsed[1].value, (Bytes{'i', 'n', 'i', 't'}));
}

TEST_F(AdversaryFixture, FabricateInventsHugeTags) {
  make(StrategyKind::kFabricate);
  send(MsgType::kQueryTag);
  send(MsgType::kQueryData, 2);
  ASSERT_EQ(probe_.parsed.size(), 2u);
  EXPECT_GE(probe_.parsed[0].tag.num, 1'000'000'000u);
  EXPECT_GE(probe_.parsed[1].tag.num, 1'000'000'000u);
  EXPECT_FALSE(probe_.parsed[1].value.empty());
}

TEST_F(AdversaryFixture, ColludersWithSameSeedMatchExactly) {
  // Two colluders constructed with the same team seed must fabricate the
  // identical pair for the same op -- that is the whole attack.
  sim::Simulator sim2(sim::SimConfig::with_fixed_delay(1, 10));
  Probe probe2;
  sim2.add_process(ProcessId::reader(0), &probe2);
  ServerContext ctx;
  ctx.self = ProcessId::server(1);
  ctx.config.n = 5;
  ctx.config.f = 1;
  ctx.transport = &sim2;
  ctx.rng = Rng(123);
  ByzantineServer other(std::move(ctx),
                        std::make_unique<ColludeStrategy>(42));
  sim2.add_process(ProcessId::server(1), &other);
  make(StrategyKind::kCollude, 42);

  send(MsgType::kQueryData, 5);
  RegisterMessage q;
  q.type = MsgType::kQueryData;
  q.op_id = 5;
  sim2.send(ProcessId::reader(0), ProcessId::server(1), q.encode());
  sim2.run_until_idle();

  ASSERT_EQ(probe_.parsed.size(), 1u);
  ASSERT_EQ(probe2.parsed.size(), 1u);
  EXPECT_EQ(probe_.parsed[0].tag, probe2.parsed[0].tag);
  EXPECT_EQ(probe_.parsed[0].value, probe2.parsed[0].value);
}

TEST_F(AdversaryFixture, ColludersFabricationVariesWithOp) {
  make(StrategyKind::kCollude, 42);
  send(MsgType::kQueryData, 1);
  send(MsgType::kQueryData, 2);
  ASSERT_EQ(probe_.parsed.size(), 2u);
  EXPECT_NE(probe_.parsed[0].value, probe_.parsed[1].value);
}

TEST_F(AdversaryFixture, DoubleReplierSendsTwoConflictingAnswers) {
  make(StrategyKind::kDoubleReply);
  send(MsgType::kQueryData);
  ASSERT_EQ(probe_.parsed.size(), 2u);
  EXPECT_NE(probe_.parsed[0].tag, probe_.parsed[1].tag);
}

TEST_F(AdversaryFixture, MalformedSendsUnparsableJunk) {
  make(StrategyKind::kMalformed);
  send(MsgType::kQueryData);
  send(MsgType::kQueryTag, 2);
  EXPECT_GE(probe_.raw.size(), 2u);
  EXPECT_TRUE(probe_.parsed.empty()) << "junk must not parse as a message";
}

TEST_F(AdversaryFixture, TurncoatIsHonestThenStale) {
  make(StrategyKind::kTurncoat);  // honest for 20 messages
  const Tag t{3, ProcessId::writer(0)};
  send(MsgType::kPutData, 1, t, Bytes{'v'});
  send(MsgType::kQueryData, 2);
  ASSERT_EQ(probe_.parsed.size(), 2u);
  EXPECT_EQ(probe_.parsed[1].tag, t) << "still honest: serves the stored pair";

  // Burn through the honest budget.
  for (uint64_t i = 0; i < 20; ++i) send(MsgType::kQueryTag, 100 + i);
  probe_.parsed.clear();
  send(MsgType::kQueryData, 999);
  ASSERT_EQ(probe_.parsed.size(), 1u);
  EXPECT_EQ(probe_.parsed[0].tag, Tag::initial()) << "turned: stale answers";
}

TEST_F(AdversaryFixture, StrategyNamesRoundTrip) {
  for (auto kind : kAllStrategyKinds) {
    EXPECT_STRNE(to_string(kind), "?");
  }
}

// ------------------------------------------- replies name their object

/// A lying strategy, and how many requests it answers honestly first.
struct LiarCase {
  const char* name;
  std::function<std::unique_ptr<Strategy>()> make;
  int honest_requests;
};

void PrintTo(const LiarCase& c, std::ostream* os) { *os << c.name; }

class LiarReplyTest : public ::testing::TestWithParam<LiarCase> {};

TEST_P(LiarReplyTest, EveryReplyNamesTheRequestsObject) {
  // Clients drop a reply that names another object, so a liar that answers
  // for object 0 is a silent server on every other object.
  sim::Simulator sim(sim::SimConfig::with_fixed_delay(1, 10));
  Probe probe;
  sim.add_process(ProcessId::reader(0), &probe);
  ServerContext ctx;
  ctx.self = ProcessId::server(0);
  ctx.config.n = 5;
  ctx.config.f = 1;
  ctx.transport = &sim;
  ctx.initial = Bytes{'i', 'n', 'i', 't'};
  ctx.rng = Rng(7);
  ByzantineServer server(std::move(ctx), GetParam().make());
  sim.add_process(ProcessId::server(0), &server);

  uint64_t op = 1;
  auto send = [&](MsgType type) {
    RegisterMessage m;
    m.type = type;
    m.op_id = op++;
    m.object = 7;
    m.tag = Tag{3, ProcessId::writer(0)};
    m.value = Bytes{'v'};
    sim.send(ProcessId::reader(0), ProcessId::server(0), m.encode());
    sim.run_until_idle();
  };
  for (int i = 0; i < GetParam().honest_requests; ++i) send(MsgType::kQueryTag);
  probe.parsed.clear();
  for (const MsgType type :
       {MsgType::kQueryTag, MsgType::kQueryData, MsgType::kPutData}) {
    send(type);
  }
  ASSERT_GE(probe.parsed.size(), 3u);
  for (const RegisterMessage& reply : probe.parsed) {
    EXPECT_EQ(reply.object, 7u) << to_string(reply.type);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Liars, LiarReplyTest,
    ::testing::Values(
        LiarCase{"stale", [] { return make_strategy(StrategyKind::kStale, 7); }, 0},
        LiarCase{"fabricate",
                 [] { return make_strategy(StrategyKind::kFabricate, 7); }, 0},
        LiarCase{"collude", [] { return make_strategy(StrategyKind::kCollude, 7); },
                 0},
        LiarCase{"double_reply",
                 [] { return make_strategy(StrategyKind::kDoubleReply, 7); }, 0},
        // Honest for its first 20 requests, then stale.
        LiarCase{"turncoat",
                 [] { return make_strategy(StrategyKind::kTurncoat, 7); }, 20},
        LiarCase{"lagging_liar",
                 []() -> std::unique_ptr<Strategy> {
                   return std::make_unique<harness::LaggingLiar>();
                 },
                 0}),
    [](const ::testing::TestParamInfo<LiarCase>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------------------- view-wire attacks
//
// Clients address all n servers on every request, and no message names a
// membership view or epoch. Server 4 below speaks the wire of the deleted
// epoch-view layer raw: VIEW-ANNOUNCE (type 22) and presence bit 5 (an
// epoch varint). parse() rejects both, so each such reply counts as
// silence, which f = 1 tolerates. Ops are driven with start_read +
// run_until_idle, so one that never finishes fails its assertion instead
// of aborting the run.

/// Bytes 0-13 of a frame: type, op id, object, presence.
Bytes wire_prefix(uint8_t type, uint64_t op_id, uint32_t object, uint8_t presence) {
  Serializer s;
  s.put_u8(type);
  s.put_u64(op_id);
  s.put_u32(object);
  s.put_u8(presence);
  return s.take();
}

harness::ClusterOptions view_attack_options(uint64_t seed) {
  harness::ClusterOptions o;
  o.protocol = registers::ProtocolVariant::kBsr;
  o.config.n = 5;
  o.config.f = 1;
  o.seed = seed;
  return o;
}

/// Server 4 answers every QUERY-DATA with a DATA-RESP that carries only
/// presence bit 5 and the varint `next_epoch()` returns.
std::unique_ptr<Strategy> epoch_replier(std::function<uint64_t()> next_epoch) {
  return std::make_unique<ScriptedStrategy>(
      [next_epoch = std::move(next_epoch)](const net::Envelope& env,
                                           ServerContext& ctx) {
        const auto req = RegisterMessage::parse(env.payload);
        if (!req || req->type != MsgType::kQueryData) return;
        Serializer epoch;
        epoch.put_varint(next_epoch());
        Bytes resp = wire_prefix(static_cast<uint8_t>(MsgType::kDataResp),
                                 req->op_id, req->object, 0x20);
        const Bytes tail = epoch.take();
        resp.insert(resp.end(), tail.begin(), tail.end());
        ctx.send_raw(env.from, std::move(resp));
      });
}

TEST(ViewAttackTest, AnnouncedViewCannotStrandTheReader) {
  // A VIEW-ANNOUNCE naming servers {0, 1, 2, 4} at epoch 1 (presence 0x30:
  // objects, then epoch) to every client that contacts server 4. Had the
  // reader adopted it, its next read would reach only three honest servers
  // and never gather n - f = 4 replies.
  Bytes announce = wire_prefix(22, 0, 0, 0x30);
  announce.insert(announce.end(), {0x04, 0x00, 0x01, 0x02, 0x04, 0x01});
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    harness::SimCluster cluster(view_attack_options(seed));
    cluster.set_byzantine(4, std::make_unique<ScriptedStrategy>(
                                 [announce](const net::Envelope& env,
                                            ServerContext& ctx) {
                                   if (!env.from.is_server()) {
                                     ctx.send_raw(env.from, announce);
                                   }
                                 }));
    const uint64_t first = cluster.start_read(0);
    cluster.sim().run_until_idle();
    ASSERT_TRUE(cluster.op_done(first)) << "seed " << seed;
    const uint64_t next = cluster.start_read(0);
    cluster.sim().run_until_idle();
    ASSERT_TRUE(cluster.op_done(next)) << "seed " << seed;
    EXPECT_EQ(cluster.read_result(next).value, cluster.options().config.initial_value);
  }
}

TEST(ViewAttackTest, EpochBumpingRepliesCostNoExtraMessages) {
  // Each lying reply names an epoch one higher than the last. A client that
  // retransmitted its in-flight ops on every new epoch would multiply its
  // traffic; 100 reads must cost 5 requests and 5 replies each.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    harness::SimCluster cluster(view_attack_options(seed));
    cluster.set_byzantine(4, epoch_replier([epoch = uint64_t{0}]() mutable {
                            return ++epoch;
                          }));
    cluster.start();
    cluster.sim().run_until_idle();
    const uint64_t before = cluster.sim().metrics().snapshot().messages_sent;
    for (int i = 0; i < 100; ++i) {
      const uint64_t id = cluster.start_read(0);
      cluster.sim().run_until_idle();
      ASSERT_TRUE(cluster.op_done(id)) << "seed " << seed << " read " << i;
    }
    EXPECT_EQ(cluster.sim().metrics().snapshot().messages_sent - before, 1000u)
        << "seed " << seed;
  }
}

TEST(ViewAttackTest, EpochNeverSpreadsToHonestTraffic) {
  // One reply naming epoch 2^64 - 1: a client that adopted it would stamp
  // it on its next requests, and the honest servers would fold it in. No
  // message from an honest process may carry presence bit 5.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    harness::SimCluster cluster(view_attack_options(seed));
    cluster.set_byzantine(4, epoch_replier([] { return UINT64_MAX; }));
    size_t tainted = 0;
    cluster.sim().delay_model().set_hook(
        [&tainted](const net::Envelope& env) -> std::optional<TimeNs> {
          if (env.from != ProcessId::server(4) && env.payload.size() > 13 &&
              (env.payload[13] & 0x20) != 0) {
            ++tainted;
          }
          return std::nullopt;
        });
    for (int i = 0; i < 5; ++i) {
      const uint64_t id = cluster.start_read(0);
      cluster.sim().run_until_idle();
      ASSERT_TRUE(cluster.op_done(id)) << "seed " << seed << " read " << i;
    }
    EXPECT_EQ(tainted, 0u) << "seed " << seed;
  }
}

// ------------------------------------------------- churn schedules

std::vector<ChurnSchedule> all_churn_schedules(size_t victim) {
  return {crash_during_write_schedule(victim),
          crash_during_read_writeback_schedule(victim),
          rejoin_mid_round_schedule(victim)};
}

TEST(ChurnScheduleTest, BuildersProduceSortedNamedSchedules) {
  std::set<std::string> names;
  for (const auto& s : all_churn_schedules(2)) {
    EXPECT_FALSE(s.name.empty());
    names.insert(s.name);
    ASSERT_FALSE(s.steps.empty()) << s.name;
    for (size_t i = 1; i < s.steps.size(); ++i) {
      EXPECT_LE(s.steps[i - 1].at, s.steps[i].at)
          << s.name << ": steps must be time-ordered (the interpreter "
          << "advances virtual time monotonically)";
    }
  }
  EXPECT_EQ(names.size(), 3u) << "names key the RNG reseed; must be distinct";
}

TEST(ChurnScheduleTest, VictimIndexReachesEveryCrashAndRestart) {
  for (const auto& s : all_churn_schedules(3)) {
    size_t crashes = 0;
    size_t restarts = 0;
    for (const auto& step : s.steps) {
      if (step.action == ChurnAction::kCrash) {
        ++crashes;
        EXPECT_EQ(step.index, 3u) << s.name;
      }
      if (step.action == ChurnAction::kRestart) {
        ++restarts;
        EXPECT_EQ(step.index, 3u) << s.name;
      }
    }
    EXPECT_EQ(crashes, 1u) << s.name;
    EXPECT_EQ(restarts, 1u) << s.name;
  }
}

TEST(ChurnScheduleTest, RestartAlwaysFollowsItsCrash) {
  for (const auto& s : all_churn_schedules(0)) {
    TimeNs crash_at = 0;
    TimeNs restart_at = 0;
    for (const auto& step : s.steps) {
      if (step.action == ChurnAction::kCrash) crash_at = step.at;
      if (step.action == ChurnAction::kRestart) restart_at = step.at;
    }
    EXPECT_LT(crash_at, restart_at) << s.name;
  }
}

TEST(ChurnScheduleTest, ActionNamesRoundTrip) {
  EXPECT_STREQ(to_string(ChurnAction::kCrash), "crash");
  EXPECT_STREQ(to_string(ChurnAction::kRestart), "restart");
  EXPECT_STREQ(to_string(ChurnAction::kStartWrite), "start-write");
  EXPECT_STREQ(to_string(ChurnAction::kStartRead), "start-read");
}

}  // namespace
}  // namespace bftreg::adversary
