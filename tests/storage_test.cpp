// Tests for the durability substrate: WAL record format, torn-tail
// recovery, compaction, and server crash-restart cycles.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "registers/registers.h"
#include "sim/simulator.h"
#include "storage/persistent_server.h"
#include "storage/wal.h"

namespace bftreg::storage {
namespace {

/// Unique temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& stem) {
    path_ = (std::filesystem::temp_directory_path() /
             ("bftreg_" + stem + "_" +
              std::to_string(::getpid()) + "_" +
              std::to_string(counter_++)))
                .string();
    std::remove(path_.c_str());
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

WalRecord rec(uint32_t object, uint64_t num, Bytes value) {
  return WalRecord{object, Tag{num, ProcessId::writer(0)}, std::move(value)};
}

TEST(WalTest, ReplayOfMissingFileIsEmpty) {
  const auto result = WriteAheadLog::replay("/nonexistent/definitely/not/here");
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.truncated_bytes, 0u);
}

TEST(WalTest, AppendReplayRoundTrip) {
  TempFile tmp("roundtrip");
  {
    WriteAheadLog wal(tmp.path());
    wal.append(rec(0, 1, Bytes{'a'}));
    wal.append(rec(0, 2, Bytes{'b', 'b'}));
    wal.append(rec(7, 1, Bytes{}));
  }
  const auto result = WriteAheadLog::replay(tmp.path());
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.truncated_bytes, 0u);
  EXPECT_EQ(result.records[0], rec(0, 1, Bytes{'a'}));
  EXPECT_EQ(result.records[1], rec(0, 2, Bytes{'b', 'b'}));
  EXPECT_EQ(result.records[2], rec(7, 1, Bytes{}));
}

TEST(WalTest, TornTailIsDiscarded) {
  TempFile tmp("torn");
  {
    WriteAheadLog wal(tmp.path());
    wal.append(rec(0, 1, Bytes(100, 'x')));
    wal.append(rec(0, 2, Bytes(100, 'y')));
  }
  // Simulate a crash mid-append: chop the last 30 bytes.
  const auto size = std::filesystem::file_size(tmp.path());
  std::filesystem::resize_file(tmp.path(), size - 30);

  const auto result = WriteAheadLog::replay(tmp.path());
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].tag.num, 1u);
  EXPECT_GT(result.truncated_bytes, 0u);
}

TEST(WalTest, CorruptedCrcStopsReplay) {
  TempFile tmp("crc");
  {
    WriteAheadLog wal(tmp.path());
    wal.append(rec(0, 1, Bytes(64, 'x')));
    wal.append(rec(0, 2, Bytes(64, 'y')));
  }
  // Flip a byte inside the first record's value.
  std::FILE* f = std::fopen(tmp.path().c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 30, SEEK_SET);
  const uint8_t junk = 0xEE;
  std::fwrite(&junk, 1, 1, f);
  std::fclose(f);

  // The corrupted record fails its crc; replay must not yield it, nor
  // anything after it (the stream cannot be trusted past the tear).
  const auto result = WriteAheadLog::replay(tmp.path());
  EXPECT_TRUE(result.records.empty());
  EXPECT_GT(result.truncated_bytes, 0u);
}

TEST(WalTest, CompactionDropsSupersededRecords) {
  TempFile tmp("compact");
  WriteAheadLog wal(tmp.path());
  for (uint64_t i = 1; i <= 50; ++i) wal.append(rec(0, i, Bytes(100, 'v')));
  const auto before = std::filesystem::file_size(tmp.path());

  wal.compact({rec(0, 50, Bytes(100, 'v'))});
  const auto after = std::filesystem::file_size(tmp.path());
  EXPECT_LT(after, before / 10);

  const auto result = WriteAheadLog::replay(tmp.path());
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].tag.num, 50u);

  // The log must still be appendable after compaction.
  wal.append(rec(0, 51, Bytes{'z'}));
  EXPECT_EQ(WriteAheadLog::replay(tmp.path()).records.size(), 2u);
}

// ------------------------------------------------- persistent server

registers::SystemConfig small_config() {
  registers::SystemConfig c;
  c.n = 5;
  c.f = 1;
  return c;
}

TEST(PersistentServerTest, FreshServerHasNoRecoveredRecords) {
  TempFile tmp("fresh");
  sim::Simulator sim(sim::SimConfig::with_fixed_delay(1, 10));
  PersistentRegisterServer server(ProcessId::server(0), small_config(), &sim,
                                  Bytes{}, tmp.path());
  EXPECT_EQ(server.recovered_records(), 0u);
  EXPECT_EQ(server.max_tag(), Tag::initial());
}

TEST(PersistentServerTest, StateSurvivesRestart) {
  TempFile tmp("restart");
  sim::Simulator sim(sim::SimConfig::with_fixed_delay(1, 10));
  const auto cfg = small_config();

  auto put = [&](net::IProcess& server, uint64_t num, Bytes v, uint32_t object = 0) {
    registers::RegisterMessage m;
    m.type = registers::MsgType::kPutData;
    m.object = object;
    m.tag = Tag{num, ProcessId::writer(0)};
    m.value = std::move(v);
    net::Envelope env;
    env.from = ProcessId::writer(0);
    env.to = ProcessId::server(0);
    env.payload = m.encode();
    server.on_message(env);
  };

  {
    PersistentRegisterServer server(ProcessId::server(0), cfg, &sim, Bytes{},
                                    tmp.path());
    put(server, 1, Bytes{'a'});
    put(server, 2, Bytes{'b'});
    put(server, 1, Bytes{'k'}, /*object=*/9);
  }  // "crash": the server object is destroyed

  PersistentRegisterServer revived(ProcessId::server(0), cfg, &sim, Bytes{},
                                   tmp.path());
  EXPECT_EQ(revived.recovered_records(), 3u);
  EXPECT_EQ(revived.max_tag(0), (Tag{2, ProcessId::writer(0)}));
  EXPECT_EQ(revived.max_value(0), (Bytes{'b'}));
  EXPECT_EQ(revived.max_value(9), (Bytes{'k'}));
  EXPECT_EQ(revived.store(0).size(), 3u);  // t0 + two writes
}

TEST(PersistentServerTest, RecoveryDoesNotRelog) {
  TempFile tmp("norelog");
  sim::Simulator sim(sim::SimConfig::with_fixed_delay(1, 10));
  const auto cfg = small_config();
  {
    PersistentRegisterServer server(ProcessId::server(0), cfg, &sim, Bytes{},
                                    tmp.path());
    registers::RegisterMessage m;
    m.type = registers::MsgType::kPutData;
    m.tag = Tag{1, ProcessId::writer(0)};
    m.value = Bytes{'a'};
    net::Envelope env;
    env.from = ProcessId::writer(0);
    env.to = ProcessId::server(0);
    env.payload = m.encode();
    server.on_message(env);
  }
  const auto size1 = std::filesystem::file_size(tmp.path());
  {
    PersistentRegisterServer revived(ProcessId::server(0), cfg, &sim, Bytes{},
                                     tmp.path());
    EXPECT_EQ(revived.recovered_records(), 1u);
  }
  EXPECT_EQ(std::filesystem::file_size(tmp.path()), size1)
      << "replay must not append duplicate records";
}

TEST(PersistentServerTest, CompactKeepsLiveStateOnly) {
  TempFile tmp("srvcompact");
  sim::Simulator sim(sim::SimConfig::with_fixed_delay(1, 10));
  auto cfg = small_config();
  cfg.max_history = 1;  // server keeps only the newest pair
  PersistentRegisterServer server(ProcessId::server(0), cfg, &sim, Bytes{},
                                  tmp.path());
  for (uint64_t i = 1; i <= 30; ++i) {
    registers::RegisterMessage m;
    m.type = registers::MsgType::kPutData;
    m.tag = Tag{i, ProcessId::writer(0)};
    m.value = Bytes(64, static_cast<uint8_t>(i));
    net::Envelope env;
    env.from = ProcessId::writer(0);
    env.to = ProcessId::server(0);
    env.payload = m.encode();
    server.on_message(env);
  }
  const auto before = std::filesystem::file_size(tmp.path());
  server.compact();
  const auto after = std::filesystem::file_size(tmp.path());
  EXPECT_LT(after, before / 5);

  const auto replayed = WriteAheadLog::replay(tmp.path());
  ASSERT_EQ(replayed.records.size(), 1u);
  EXPECT_EQ(replayed.records[0].tag.num, 30u);
}

// End-to-end: a full BSR cluster where one server restarts between a write
// and a read -- the recovered server still witnesses the write, so the
// read gets its f+1 witnesses even if the remaining quorum is thin.
TEST(PersistentServerTest, RecoveryKeepsWitnessGuarantee) {
  TempFile tmp("witness");
  sim::Simulator sim(sim::SimConfig::with_fixed_delay(3, 100));
  registers::SystemConfig cfg = small_config();

  std::vector<std::unique_ptr<net::IProcess>> servers;
  auto persistent = std::make_unique<PersistentRegisterServer>(
      ProcessId::server(0), cfg, &sim, Bytes{}, tmp.path());
  auto* persistent_raw = persistent.get();
  servers.push_back(std::move(persistent));
  for (uint32_t i = 1; i < cfg.n; ++i) {
    servers.push_back(std::make_unique<registers::RegisterServer>(
        ProcessId::server(i), cfg, &sim, Bytes{}));
  }
  for (uint32_t i = 0; i < cfg.n; ++i) {
    sim.add_process(ProcessId::server(i), servers[i].get());
  }
  registers::RegisterClient writer(ProcessId::writer(0), cfg, &sim);
  registers::RegisterClient reader(ProcessId::reader(0), cfg, &sim);
  sim.add_process(ProcessId::writer(0), &writer);
  sim.add_process(ProcessId::reader(0), &reader);

  bool done = false;
  writer.write(0, Bytes{'d', 'u', 'r'},
               [&](const registers::WriteResult&) { done = true; });
  ASSERT_TRUE(sim.run_until([&] { return done; }));
  sim.run_until_idle();
  (void)persistent_raw;

  // "Restart" server 0: replace the process object with a recovered one.
  servers[0] = std::make_unique<PersistentRegisterServer>(
      ProcessId::server(0), cfg, &sim, Bytes{}, tmp.path());
  sim.add_process(ProcessId::server(0), servers[0].get());

  done = false;
  Bytes got;
  reader.read(0, [&](const registers::ReadResult& r) {
    got = r.value;
    done = true;
  });
  ASSERT_TRUE(sim.run_until([&] { return done; }));
  EXPECT_EQ(got, (Bytes{'d', 'u', 'r'}));
}

// ------------------------------------------- crash/rejoin catch-up

/// Collects every envelope the server under test sends back.
class ReplyProbe final : public net::IProcess {
 public:
  void on_message(const net::Envelope& env) override {
    replies.push_back(env);
  }
  std::vector<net::Envelope> replies;
};

/// A 5-server BSR fixture where server 0 is WAL-backed and the other four
/// are plain in-memory servers; used to exercise the crash -> replay ->
/// refuse -> quorum-catch-up -> serve cycle.
class CatchUpFixture : public ::testing::Test {
 protected:
  CatchUpFixture()
      : tmp_("catchup"),
        sim_(sim::SimConfig::with_fixed_delay(3, 100)),
        cfg_(small_config()),
        writer_(ProcessId::writer(0), cfg_, &sim_) {
    for (uint32_t i = 1; i < cfg_.n; ++i) {
      peers_.push_back(std::make_unique<registers::RegisterServer>(
          ProcessId::server(i), cfg_, &sim_, Bytes{}));
      sim_.add_process(ProcessId::server(i), peers_.back().get());
    }
    sim_.add_process(ProcessId::writer(0), &writer_);
    sim_.add_process(ProcessId::reader(0), &probe_);
  }

  void write(Bytes v) {
    bool done = false;
    writer_.write(0, std::move(v),
                  [&](const registers::WriteResult&) { done = true; });
    ASSERT_TRUE(sim_.run_until([&] { return done; }));
    sim_.run_until_idle();
  }

  /// Injects a client request directly into `server` (from reader 0, whose
  /// mailbox is the probe) and drains the simulator.
  void send_request(PersistentRegisterServer& server, registers::MsgType type) {
    registers::RegisterMessage m;
    m.type = type;
    m.op_id = 7777;
    m.tag = Tag{99, ProcessId::writer(0)};
    m.value = Bytes{'z'};
    net::Envelope env;
    env.from = ProcessId::reader(0);
    env.to = ProcessId::server(0);
    env.payload = m.encode();
    server.on_message(env);
    sim_.run_until_idle();
  }

  TempFile tmp_;
  sim::Simulator sim_;
  registers::SystemConfig cfg_;
  std::vector<std::unique_ptr<net::IProcess>> peers_;
  registers::RegisterClient writer_;
  ReplyProbe probe_;
};

TEST_F(CatchUpFixture, KilledMidAppendReplaysThenRefusesUntilQuorumCatchUp) {
  // Live phase: server 0 logs two completed writes...
  {
    PersistentRegisterServer server(ProcessId::server(0), cfg_, &sim_, Bytes{},
                                    tmp_.path());
    sim_.add_process(ProcessId::server(0), &server);
    write(Bytes(64, 'a'));
    write(Bytes(64, 'b'));
    sim_.mark_crashed(ProcessId::server(0));
  }  // ...and dies. (Destroyed only after mark_crashed: no dangling deliveries.)

  // A third write completes at the surviving n - f = 4 servers; server 0
  // never saw it, so WAL replay alone CANNOT restore it.
  write(Bytes(64, 'c'));

  // The kill also tore the tail of the final append (the 64-byte records
  // are longer than the 30 bytes chopped, so the tear lands mid-record).
  const auto size = std::filesystem::file_size(tmp_.path());
  std::filesystem::resize_file(tmp_.path(), size - 30);

  PersistentRegisterServer recovered(ProcessId::server(0), cfg_, &sim_, Bytes{},
                                     tmp_.path(),
                                     RecoveryPolicy::kCatchUpBeforeServe);
  EXPECT_EQ(recovered.recovered_records(), 1u) << "torn record must be dropped";
  EXPECT_GT(recovered.recovered_truncated_bytes(), 0u);
  ASSERT_FALSE(recovered.is_serving());
  sim_.add_process(ProcessId::server(0), &recovered);
  sim_.revive(ProcessId::server(0));

  // Proof obligation: between replay and catch-up completion the server
  // answers NOTHING -- queries and writes alike vanish into the refusal
  // counter.
  send_request(recovered, registers::MsgType::kQueryTag);
  send_request(recovered, registers::MsgType::kQueryData);
  send_request(recovered, registers::MsgType::kPutData);
  EXPECT_TRUE(probe_.replies.empty());
  EXPECT_EQ(recovered.refused_while_catching_up(), 3u);
  EXPECT_EQ(recovered.max_tag(0), (Tag{1, ProcessId::writer(0)}))
      << "the refused put must not have been applied either";

  recovered.begin_catch_up();
  ASSERT_TRUE(sim_.run_until([&] { return recovered.is_serving(); }));
  sim_.run_until_idle();

  // Catch-up recovered the write it missed while down.
  EXPECT_GE(recovered.catch_up_adopted(), 1u);
  EXPECT_EQ(recovered.max_tag(0), (Tag{3, ProcessId::writer(0)}));
  EXPECT_EQ(recovered.max_value(0), Bytes(64, 'c'));

  // Now -- and only now -- it answers.
  send_request(recovered, registers::MsgType::kQueryTag);
  ASSERT_EQ(probe_.replies.size(), 1u);
  const auto reply = registers::RegisterMessage::parse(probe_.replies[0].payload);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, registers::MsgType::kTagResp);
  EXPECT_EQ(reply->tag, (Tag{3, ProcessId::writer(0)}));
  EXPECT_EQ(recovered.refused_while_catching_up(), 3u) << "counter frozen once serving";
}

TEST_F(CatchUpFixture, EmptyWalStillRefusesThenAdoptsPeerState) {
  // Server 0 was down from the start: no WAL file, two writes completed at
  // its peers. A blank rejoin that served immediately could un-witness
  // them; the catch-up policy must adopt the peers' newest state first.
  sim_.mark_crashed(ProcessId::server(0));
  write(Bytes{'x'});
  write(Bytes{'y'});

  PersistentRegisterServer recovered(ProcessId::server(0), cfg_, &sim_, Bytes{},
                                     tmp_.path(),
                                     RecoveryPolicy::kCatchUpBeforeServe);
  EXPECT_EQ(recovered.recovered_records(), 0u);
  ASSERT_FALSE(recovered.is_serving());
  sim_.add_process(ProcessId::server(0), &recovered);
  sim_.revive(ProcessId::server(0));

  send_request(recovered, registers::MsgType::kQueryData);
  EXPECT_TRUE(probe_.replies.empty());
  EXPECT_EQ(recovered.refused_while_catching_up(), 1u);

  recovered.begin_catch_up();
  ASSERT_TRUE(sim_.run_until([&] { return recovered.is_serving(); }));
  sim_.run_until_idle();
  EXPECT_GE(recovered.catch_up_adopted(), 1u);
  EXPECT_EQ(recovered.max_tag(0), (Tag{2, ProcessId::writer(0)}));
  EXPECT_EQ(recovered.max_value(0), (Bytes{'y'}));
}

TEST(PersistentServerTest, CatchUpWithNoPeersFinishesImmediately) {
  // n = 1, f = 0: catch_up_quorum() is zero, so begin_catch_up flips the
  // server straight to serving (there is no one to sync from).
  TempFile tmp("solo");
  sim::Simulator sim(sim::SimConfig::with_fixed_delay(1, 10));
  registers::SystemConfig cfg;
  cfg.n = 1;
  cfg.f = 0;
  PersistentRegisterServer server(ProcessId::server(0), cfg, &sim, Bytes{},
                                  tmp.path(),
                                  RecoveryPolicy::kCatchUpBeforeServe);
  sim.add_process(ProcessId::server(0), &server);
  EXPECT_FALSE(server.is_serving());
  server.begin_catch_up();
  EXPECT_TRUE(server.is_serving());
  EXPECT_EQ(server.refused_while_catching_up(), 0u);
  EXPECT_EQ(server.catch_up_adopted(), 0u);
}

TEST(PersistentServerTest, ServeImmediatelyPolicyIsUnchanged) {
  // The default policy must behave exactly as before the membership layer:
  // up and answering from construction.
  TempFile tmp("immediate");
  sim::Simulator sim(sim::SimConfig::with_fixed_delay(1, 10));
  PersistentRegisterServer server(ProcessId::server(0), small_config(), &sim,
                                  Bytes{}, tmp.path());
  EXPECT_TRUE(server.is_serving());
  EXPECT_EQ(server.refused_while_catching_up(), 0u);
}

}  // namespace
}  // namespace bftreg::storage
