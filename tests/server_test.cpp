// Unit tests for RegisterServer (Fig. 3 / Fig. 6 server logic).
#include <gtest/gtest.h>

#include "registers/server.h"
#include "sim/simulator.h"

namespace bftreg::registers {
namespace {

class ClientProbe final : public net::IProcess {
 public:
  void on_message(const net::Envelope& env) override {
    auto msg = RegisterMessage::parse(env.payload);
    ASSERT_TRUE(msg.has_value());
    received.push_back(*msg);
  }
  std::vector<RegisterMessage> received;
};

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture()
      : sim_(sim::SimConfig::with_fixed_delay(1, 10)),
        config_{make_config()},
        server_(ProcessId::server(0), config_, &sim_, Bytes{'v', '0'}) {
    sim_.add_process(ProcessId::server(0), &server_);
    sim_.add_process(writer_, &writer_probe_);
    sim_.add_process(reader_, &reader_probe_);
  }

  static SystemConfig make_config() {
    SystemConfig c;
    c.n = 5;
    c.f = 1;
    c.initial_value = Bytes{'v', '0'};
    return c;
  }

  void send(const ProcessId& from, const RegisterMessage& msg) {
    sim_.send(from, ProcessId::server(0), msg.encode());
    sim_.run_until_idle();
  }

  RegisterMessage put(uint64_t op, Tag tag, Bytes value) {
    RegisterMessage m;
    m.type = MsgType::kPutData;
    m.op_id = op;
    m.tag = tag;
    m.value = std::move(value);
    return m;
  }

  sim::Simulator sim_;
  SystemConfig config_;
  RegisterServer server_;
  ProcessId writer_ = ProcessId::writer(0);
  ProcessId reader_ = ProcessId::reader(0);
  ClientProbe writer_probe_;
  ClientProbe reader_probe_;
};

TEST_F(ServerFixture, InitialStateHasT0) {
  EXPECT_EQ(server_.max_tag(), Tag::initial());
  EXPECT_EQ(server_.max_value(), (Bytes{'v', '0'}));
  EXPECT_EQ(server_.store().size(), 1u);
}

TEST_F(ServerFixture, QueryTagReturnsMaxTag) {
  RegisterMessage q;
  q.type = MsgType::kQueryTag;
  q.op_id = 5;
  send(writer_, q);
  ASSERT_EQ(writer_probe_.received.size(), 1u);
  EXPECT_EQ(writer_probe_.received[0].type, MsgType::kTagResp);
  EXPECT_EQ(writer_probe_.received[0].op_id, 5u);
  EXPECT_EQ(writer_probe_.received[0].tag, Tag::initial());
}

TEST_F(ServerFixture, PutDataStoresAndAcks) {
  const Tag t{1, ProcessId::writer(0)};
  send(writer_, put(9, t, Bytes{'a'}));
  ASSERT_EQ(writer_probe_.received.size(), 1u);
  EXPECT_EQ(writer_probe_.received[0].type, MsgType::kAck);
  EXPECT_EQ(writer_probe_.received[0].tag, t);
  EXPECT_EQ(server_.max_tag(), t);
  EXPECT_EQ(server_.max_value(), (Bytes{'a'}));
}

TEST_F(ServerFixture, AllPolicyKeepsInterleavedTags) {
  send(writer_, put(1, Tag{5, ProcessId::writer(0)}, Bytes{'5'}));
  send(writer_, put(2, Tag{3, ProcessId::writer(1)}, Bytes{'3'}));
  EXPECT_EQ(server_.store().size(), 3u);  // t0, 3, 5
  EXPECT_EQ(server_.max_tag(), (Tag{5, ProcessId::writer(0)}));
}

TEST_F(ServerFixture, LowerPutStillAcked) {
  send(writer_, put(1, Tag{5, ProcessId::writer(0)}, Bytes{'5'}));
  send(writer_, put(2, Tag{3, ProcessId::writer(1)}, Bytes{'3'}));
  EXPECT_EQ(writer_probe_.received.size(), 2u);
  EXPECT_EQ(writer_probe_.received[1].type, MsgType::kAck);
}

TEST_F(ServerFixture, QueryDataReturnsNewestPair) {
  send(writer_, put(1, Tag{2, ProcessId::writer(0)}, Bytes{'b'}));
  RegisterMessage q;
  q.type = MsgType::kQueryData;
  q.op_id = 77;
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  const auto& resp = reader_probe_.received[0];
  EXPECT_EQ(resp.type, MsgType::kDataResp);
  EXPECT_EQ(resp.tag, (Tag{2, ProcessId::writer(0)}));
  EXPECT_EQ(resp.value, (Bytes{'b'}));
}

TEST_F(ServerFixture, QueryHistoryReturnsEverything) {
  send(writer_, put(1, Tag{1, ProcessId::writer(0)}, Bytes{'1'}));
  send(writer_, put(2, Tag{2, ProcessId::writer(0)}, Bytes{'2'}));
  RegisterMessage q;
  q.type = MsgType::kQueryHistory;
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  EXPECT_EQ(reader_probe_.received[0].history.size(), 3u);  // t0 + two writes
}

TEST_F(ServerFixture, QueryTagHistoryReturnsAllTags) {
  send(writer_, put(1, Tag{4, ProcessId::writer(1)}, Bytes{'x'}));
  RegisterMessage q;
  q.type = MsgType::kQueryTagHistory;
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  EXPECT_EQ(reader_probe_.received[0].tags.size(), 2u);
}

TEST_F(ServerFixture, QueryDataAtKnownTagAnswersImmediately) {
  const Tag t{1, ProcessId::writer(0)};
  send(writer_, put(1, t, Bytes{'k'}));
  RegisterMessage q;
  q.type = MsgType::kQueryDataAt;
  q.op_id = 3;
  q.tag = t;
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  EXPECT_EQ(reader_probe_.received[0].type, MsgType::kDataAtResp);
  EXPECT_EQ(reader_probe_.received[0].value, (Bytes{'k'}));
}

TEST_F(ServerFixture, QueryDataAtUnknownTagDefersUntilPutArrives) {
  const Tag t{7, ProcessId::writer(0)};
  RegisterMessage q;
  q.type = MsgType::kQueryDataAt;
  q.op_id = 11;
  q.tag = t;
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  EXPECT_EQ(reader_probe_.received[0].type, MsgType::kDataAtMissing);

  // The PUT-DATA for that tag arrives later: the server answers the
  // deferred query.
  send(writer_, put(1, t, Bytes{'d'}));
  ASSERT_EQ(reader_probe_.received.size(), 2u);
  EXPECT_EQ(reader_probe_.received[1].type, MsgType::kDataAtResp);
  EXPECT_EQ(reader_probe_.received[1].op_id, 11u);
  EXPECT_EQ(reader_probe_.received[1].value, (Bytes{'d'}));
}

TEST_F(ServerFixture, ReadDoneCancelsDeferredQuery) {
  const Tag t{7, ProcessId::writer(0)};
  RegisterMessage q;
  q.type = MsgType::kQueryDataAt;
  q.op_id = 11;
  q.tag = t;
  send(reader_, q);
  RegisterMessage done;
  done.type = MsgType::kReadDone;
  done.op_id = 11;
  send(reader_, done);
  send(writer_, put(1, t, Bytes{'d'}));
  // Only the initial DATA-AT-MISSING; no deferred answer after READ-DONE.
  ASSERT_EQ(reader_probe_.received.size(), 1u);
}

TEST_F(ServerFixture, MalformedPayloadIgnored) {
  sim_.send(writer_, ProcessId::server(0), Bytes{0xde, 0xad});
  sim_.run_until_idle();
  EXPECT_TRUE(writer_probe_.received.empty());
  EXPECT_EQ(server_.store().size(), 1u);
}

TEST_F(ServerFixture, StoredBytesTracksPayloads) {
  const size_t initial = server_.stored_bytes();
  send(writer_, put(1, Tag{1, ProcessId::writer(0)}, Bytes(100, 0)));
  EXPECT_EQ(server_.stored_bytes(), initial + 100);
}

TEST_F(ServerFixture, ReadOnlyQueriesDoNotCreateStores) {
  ASSERT_EQ(server_.objects_known(), 1u);  // only the default register

  RegisterMessage q;
  q.op_id = 1;
  q.object = 42;
  for (MsgType type : {MsgType::kQueryTag, MsgType::kQueryData,
                       MsgType::kQueryHistory, MsgType::kQueryTagHistory}) {
    q.type = type;
    send(reader_, q);
  }
  ASSERT_EQ(reader_probe_.received.size(), 4u);
  // Every answer is the lazy initialization {(t0, v0)} -- but the store for
  // object 42 was never materialized.
  EXPECT_EQ(reader_probe_.received[0].tag, Tag::initial());
  EXPECT_EQ(reader_probe_.received[1].value, (Bytes{'v', '0'}));
  ASSERT_EQ(reader_probe_.received[2].history.size(), 1u);
  EXPECT_EQ(reader_probe_.received[2].history[0].value, (Bytes{'v', '0'}));
  ASSERT_EQ(reader_probe_.received[3].tags.size(), 1u);
  EXPECT_EQ(reader_probe_.received[3].tags[0], Tag::initial());
  EXPECT_EQ(server_.objects_known(), 1u);

  // DATA-AT for t0 on an unknown object answers v0 without a store either.
  q.type = MsgType::kQueryDataAt;
  q.tag = Tag::initial();
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 5u);
  EXPECT_EQ(reader_probe_.received[4].type, MsgType::kDataAtResp);
  EXPECT_EQ(reader_probe_.received[4].value, (Bytes{'v', '0'}));
  EXPECT_EQ(server_.objects_known(), 1u);
}

TEST_F(ServerFixture, QueryDataBatchDoesNotCreateStores) {
  RegisterMessage q;
  q.type = MsgType::kQueryDataBatch;
  q.op_id = 9;
  q.objects = {7, 8, 9, 10};
  send(reader_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  const auto& resp = reader_probe_.received[0];
  EXPECT_EQ(resp.type, MsgType::kDataBatchResp);
  ASSERT_EQ(resp.history.size(), 4u);
  for (const auto& tv : resp.history) {
    EXPECT_EQ(tv.tag, Tag::initial());
    EXPECT_EQ(tv.value, (Bytes{'v', '0'}));
  }
  // A (possibly Byzantine) client probing arbitrary ids must not balloon
  // server state: no stores were created for objects 7..10.
  EXPECT_EQ(server_.objects_known(), 1u);
}

TEST_F(ServerFixture, ReadDoneCancelsOnlyThatReadersWaiter) {
  // Two clients defer on the same unknown (object, tag); READ-DONE from one
  // must cancel only its own waiter, leaving the other to be satisfied.
  const Tag t{9, ProcessId::writer(0)};
  RegisterMessage q;
  q.type = MsgType::kQueryDataAt;
  q.tag = t;
  q.op_id = 21;
  send(reader_, q);
  q.op_id = 22;
  send(writer_, q);
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  ASSERT_EQ(writer_probe_.received.size(), 1u);
  EXPECT_EQ(reader_probe_.received[0].type, MsgType::kDataAtMissing);
  EXPECT_EQ(writer_probe_.received[0].type, MsgType::kDataAtMissing);

  RegisterMessage done;
  done.type = MsgType::kReadDone;
  done.op_id = 21;
  send(reader_, done);

  send(writer_, put(1, t, Bytes{'z'}));
  // The writer-probe waiter survives the reader's cancel: it gets the
  // deferred answer (plus its own put ACK); the reader gets nothing more.
  ASSERT_EQ(reader_probe_.received.size(), 1u);
  ASSERT_EQ(writer_probe_.received.size(), 3u);
  EXPECT_EQ(writer_probe_.received[1].type, MsgType::kDataAtResp);
  EXPECT_EQ(writer_probe_.received[1].op_id, 22u);
  EXPECT_EQ(writer_probe_.received[1].value, (Bytes{'z'}));
  EXPECT_EQ(writer_probe_.received[2].type, MsgType::kAck);
}

// MaxOnly policy (Fig. 3 verbatim).
TEST(ServerMaxOnlyTest, DropsNonIncreasingTags) {
  sim::Simulator sim(sim::SimConfig::with_fixed_delay(1, 10));
  SystemConfig cfg;
  cfg.n = 5;
  cfg.f = 1;
  cfg.store_policy = StorePolicy::kMaxOnly;
  RegisterServer server(ProcessId::server(0), cfg, &sim, Bytes{});
  ClientProbe probe;
  sim.add_process(ProcessId::server(0), &server);
  sim.add_process(ProcessId::writer(0), &probe);

  auto put = [&](Tag tag, Bytes v) {
    RegisterMessage m;
    m.type = MsgType::kPutData;
    m.tag = tag;
    m.value = std::move(v);
    sim.send(ProcessId::writer(0), ProcessId::server(0), m.encode());
    sim.run_until_idle();
  };
  put(Tag{5, ProcessId::writer(0)}, Bytes{'5'});
  put(Tag{3, ProcessId::writer(1)}, Bytes{'3'});  // lower: dropped
  put(Tag{5, ProcessId::writer(0)}, Bytes{'X'});  // equal: dropped
  EXPECT_EQ(server.store().size(), 2u);  // t0 and tag 5
  EXPECT_EQ(server.max_value(), (Bytes{'5'}));
  EXPECT_EQ(probe.received.size(), 3u);  // all three ACKed regardless
}

// --- sharded object table (SystemConfig::server_shards) ---------------------

class ShardedServerFixture : public ::testing::Test {
 protected:
  static constexpr size_t kShards = 4;

  ShardedServerFixture()
      : sim_(sim::SimConfig::with_fixed_delay(1, 10)),
        server_(ProcessId::server(0), make_config(), &sim_, Bytes{'v', '0'}) {
    sim_.add_process(ProcessId::server(0), &server_);
    sim_.add_process(writer_, &probe_);
  }

  static SystemConfig make_config() {
    SystemConfig c;
    c.n = 5;
    c.f = 1;
    c.initial_value = Bytes{'v', '0'};
    c.server_shards = kShards;
    return c;
  }

  void send(const RegisterMessage& msg) {
    sim_.send(writer_, ProcessId::server(0), msg.encode());
    sim_.run_until_idle();
  }

  void put(uint32_t object, Tag tag, Bytes value) {
    RegisterMessage m;
    m.type = MsgType::kPutData;
    m.object = object;
    m.tag = tag;
    m.value = std::move(value);
    send(m);
  }

  sim::Simulator sim_;
  RegisterServer server_;
  ProcessId writer_ = ProcessId::writer(0);
  ClientProbe probe_;
};

TEST_F(ShardedServerFixture, ReportsOneDeliveryShardPerConfigShard) {
  EXPECT_EQ(server_.delivery_shards(), kShards);
}

TEST_F(ShardedServerFixture, ShardOfPeeksObjectConsistently) {
  // Same object -> same shard regardless of message type; every shard in
  // range; the mapping spreads sequential ids across more than one shard.
  std::vector<uint32_t> seen;
  for (uint32_t object = 0; object < 32; ++object) {
    RegisterMessage q;
    q.type = MsgType::kQueryTag;
    q.object = object;
    net::Envelope env;
    env.payload = Payload(q.encode());
    const uint32_t shard = server_.shard_of(env);
    ASSERT_LT(shard, kShards);
    seen.push_back(shard);

    RegisterMessage p;
    p.type = MsgType::kPutData;
    p.object = object;
    p.value = Bytes{'x'};
    net::Envelope put_env;
    put_env.payload = Payload(p.encode());
    EXPECT_EQ(server_.shard_of(put_env), shard) << "object " << object;
  }
  std::sort(seen.begin(), seen.end());
  seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
  EXPECT_GT(seen.size(), 1u);  // hash actually distributes
}

TEST_F(ShardedServerFixture, MalformedPayloadRoutesToShardZero) {
  net::Envelope env;
  env.payload = Payload(Bytes{1, 2, 3});  // shorter than the fixed prefix
  EXPECT_EQ(server_.shard_of(env), 0u);
}

TEST_F(ShardedServerFixture, PutsAndQueriesSpanShards) {
  constexpr uint32_t kObjects = 24;
  for (uint32_t object = 0; object < kObjects; ++object) {
    put(object, Tag{object + 1, writer_}, Bytes{static_cast<uint8_t>(object)});
  }
  EXPECT_EQ(server_.objects_known(), kObjects);
  for (uint32_t object = 0; object < kObjects; ++object) {
    EXPECT_EQ(server_.max_tag(object), (Tag{object + 1, writer_}));
    EXPECT_EQ(server_.max_value(object), Bytes{static_cast<uint8_t>(object)});
  }

  probe_.received.clear();
  RegisterMessage q;
  q.type = MsgType::kQueryData;
  q.object = 17;
  q.op_id = 42;
  send(q);
  ASSERT_EQ(probe_.received.size(), 1u);
  EXPECT_EQ(probe_.received[0].type, MsgType::kDataResp);
  EXPECT_EQ(probe_.received[0].tag, (Tag{18, writer_}));
  EXPECT_EQ(probe_.received[0].value, (Bytes{17}));
}

TEST_F(ShardedServerFixture, BatchReadsAcrossShardOwners) {
  put(3, Tag{1, writer_}, Bytes{'a'});
  put(9, Tag{2, writer_}, Bytes{'b'});
  put(14, Tag{3, writer_}, Bytes{'c'});

  probe_.received.clear();
  RegisterMessage q;
  q.type = MsgType::kQueryDataBatch;
  q.op_id = 7;
  q.objects = {3, 9, 14, 1000};  // 1000: never seen, reads as lazy init
  send(q);
  ASSERT_EQ(probe_.received.size(), 1u);
  const auto& resp = probe_.received[0];
  EXPECT_EQ(resp.type, MsgType::kDataBatchResp);
  ASSERT_EQ(resp.history.size(), 4u);
  EXPECT_EQ(resp.history[0].value, (Bytes{'a'}));
  EXPECT_EQ(resp.history[1].value, (Bytes{'b'}));
  EXPECT_EQ(resp.history[2].value, (Bytes{'c'}));
  EXPECT_EQ(resp.history[3].tag, Tag::initial());
  EXPECT_EQ(resp.history[3].value, (Bytes{'v', '0'}));
  // The never-seen object was answered without materializing state.
  EXPECT_EQ(server_.objects_known(), 4u);  // 0 (default), 3, 9, 14
}

TEST_F(ShardedServerFixture, OversizeValuesRoundTripThroughCache) {
  // A 532-byte value lives in a slab block, not inside its log entry.
  Bytes big(532, uint8_t{0xAB});
  put(5, Tag{1, writer_}, big);
  EXPECT_EQ(server_.max_value(5), big);

  probe_.received.clear();
  RegisterMessage q;
  q.type = MsgType::kQueryData;
  q.object = 5;
  send(q);
  ASSERT_EQ(probe_.received.size(), 1u);
  EXPECT_EQ(probe_.received[0].value, big);

  // Shrink back to an inline value: the newest entry must supersede it.
  put(5, Tag{2, writer_}, Bytes{'s'});
  EXPECT_EQ(server_.max_tag(5), (Tag{2, writer_}));
  EXPECT_EQ(server_.max_value(5), (Bytes{'s'}));
  probe_.received.clear();
  send(q);
  ASSERT_EQ(probe_.received.size(), 1u);
  EXPECT_EQ(probe_.received[0].tag, (Tag{2, writer_}));
  EXPECT_EQ(probe_.received[0].value, (Bytes{'s'}));
}

TEST_F(ShardedServerFixture, StoredBytesTracksAcrossShards) {
  const size_t initial = server_.stored_bytes();  // object 0's lazy init
  put(1, Tag{1, writer_}, Bytes(100, 'x'));
  put(2, Tag{1, writer_}, Bytes(50, 'y'));
  // Each first put materializes {t0, v0} (2 bytes) plus the value.
  EXPECT_EQ(server_.stored_bytes(), initial + 2 + 100 + 2 + 50);
}

TEST(ServerConfigTest, BuilderRejectsZeroShards) {
  auto result = SystemConfig::builder().n(5).f(1).server_shards(0).build();
  ASSERT_FALSE(result.ok());
}

TEST(ServerConfigTest, BuilderAcceptsShardCount) {
  auto result = SystemConfig::builder().n(5).f(1).server_shards(8).build_for_bsr();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().server_shards, 8u);
}

}  // namespace
}  // namespace bftreg::registers
