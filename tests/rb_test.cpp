// Tests for the RB-based baseline register (n >= 3f+1) -- the comparator
// whose latency cost motivates the paper (Section I-B, Section VI / [15]).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "checker/consistency.h"
#include "harness/sim_cluster.h"
#include "workload/workload.h"

namespace bftreg::harness {
namespace {

using adversary::StrategyKind;
using checker::CheckOptions;
using checker::check_safety;
using registers::ProtocolVariant;

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

ClusterOptions rb_options(size_t n, size_t f, uint64_t seed = 1) {
  ClusterOptions o;
  o.protocol = ProtocolVariant::kRb;
  o.config.n = n;
  o.config.f = f;
  o.num_writers = 2;
  o.num_readers = 2;
  o.seed = seed;
  return o;
}

TEST(RbRegisterTest, WorksWithOnly3fPlus1Servers) {
  // The whole point of assuming RB: fewer servers than BSR's 4f+1.
  SimCluster cluster(rb_options(4, 1));
  cluster.write(0, val("rb"));
  EXPECT_EQ(cluster.read(0).value, val("rb"));
}

TEST(RbRegisterTest, ReadBeforeWriteReturnsInitial) {
  SimCluster cluster(rb_options(4, 1));
  EXPECT_EQ(cluster.read(0).value, Bytes{});
}

TEST(RbRegisterTest, SequentialWorkloadReadsLatest) {
  SimCluster cluster(rb_options(7, 2, 3));
  for (int i = 0; i < 8; ++i) {
    cluster.write(i % 2, val("q" + std::to_string(i)));
    EXPECT_EQ(cluster.read(i % 2).value, val("q" + std::to_string(i)));
  }
  CheckOptions copts;
  copts.strict_validity = true;
  const auto res = check_safety(cluster.recorder().ops(), copts);
  EXPECT_TRUE(res.ok) << res.violation;
}

TEST(RbRegisterTest, SurvivesFSilentServers) {
  SimCluster cluster(rb_options(7, 2, 5));
  cluster.set_byzantine(1, StrategyKind::kSilent);
  cluster.set_byzantine(4, StrategyKind::kSilent);
  cluster.write(0, val("still-works"));
  EXPECT_EQ(cluster.read(0).value, val("still-works"));
}

TEST(RbRegisterTest, WriteLatencyIncludesRbPropagation) {
  // With fixed one-way delay d, a BSR write is 4d (two rounds). An RB write
  // pays get-tag (2d) + PUT (d) + ECHO (d) + READY (d) + ACK (d) = 6d: the
  // 1.5x blowup of Section I-B, measured end to end.
  ClusterOptions bsr;
  bsr.protocol = ProtocolVariant::kBsr;
  bsr.config.n = 5;
  bsr.config.f = 1;
  bsr.delay_lo = bsr.delay_hi = 1000;
  SimCluster bsr_cluster(bsr);
  const auto wb = bsr_cluster.write(0, val("x"));
  const TimeNs bsr_latency = wb.completed_at - wb.invoked_at;
  EXPECT_EQ(bsr_latency, 4000u);

  ClusterOptions rb = rb_options(4, 1);
  rb.delay_lo = rb.delay_hi = 1000;
  SimCluster rb_cluster(rb);
  const auto wr = rb_cluster.write(0, val("x"));
  const TimeNs rb_latency = wr.completed_at - wr.invoked_at;
  EXPECT_EQ(rb_latency, 6000u);
  EXPECT_EQ(rb_latency, bsr_latency * 3 / 2);  // exactly 1.5x
}

TEST(RbRegisterTest, ReaderWaitsOutPropagationWhenServersLag) {
  // Delay the Bracha READY messages toward two servers so they apply the
  // write late; the reader must keep waiting (via DATA-UPDATE pushes)
  // instead of returning a verified-stale answer.
  SimCluster cluster(rb_options(4, 1, 9));
  cluster.start();
  cluster.write(0, val("first"));
  cluster.sim().run_until_idle();

  auto& delay = cluster.sim().delay_model();
  delay.set_hook([](const net::Envelope& env) -> std::optional<TimeNs> {
    // Slow all server-to-server frames toward servers 2 and 3.
    if (env.from.is_server() && env.to.is_server() &&
        (env.to.index == 2 || env.to.index == 3)) {
      return TimeNs{400'000};
    }
    return std::nullopt;
  });
  cluster.write(0, val("second"));

  const auto r = cluster.read(0);
  EXPECT_EQ(r.value, val("second"));
}

TEST(RbRegisterTest, PipelinedReadsEachWaitOutPropagation) {
  // One RegisterClient keeps three RB reads in flight -- two of object 0,
  // one of object 1 -- while Bracha frames toward servers 1 and 2 crawl,
  // so only server 0 has RB-delivered the newest write of object 0 when
  // the reads start. Server 3 fabricates sky-high tags, which makes H the
  // newest honest tag: each read of object 0 needs a second voucher for
  // the new pair, and that voucher arrives as a DATA-UPDATE push. The
  // servers key subscriptions by (reader, op id), so both reads of object
  // 0 get their pushes; keyed by reader, the second read's QUERY-DATA
  // would take over the first's subscription and stall it forever.
  sim::Simulator sim(sim::SimConfig::with_uniform_delay(9, 500, 1500));
  registers::SystemConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  std::vector<std::unique_ptr<registers::RbServer>> honest;
  for (uint32_t i = 0; i < 3; ++i) {
    honest.push_back(std::make_unique<registers::RbServer>(
        ProcessId::server(i), cfg, &sim, Bytes{}));
    sim.add_process(ProcessId::server(i), honest.back().get());
  }
  adversary::ServerContext ctx;
  ctx.self = ProcessId::server(3);
  ctx.config = cfg;
  ctx.transport = &sim;
  ctx.rng = Rng(3);
  adversary::ByzantineServer liar(
      std::move(ctx), adversary::make_strategy(StrategyKind::kFabricate, 3));
  sim.add_process(ProcessId::server(3), &liar);

  const registers::ClientOptions rb{registers::ProtocolVariant::kRb};
  registers::RegisterClient writer(ProcessId::writer(0), cfg, &sim, rb);
  registers::RegisterClient reader(ProcessId::reader(0), cfg, &sim, rb);
  sim.add_process(ProcessId::writer(0), &writer);
  sim.add_process(ProcessId::reader(0), &reader);

  // One execution record per object: each object is its own register.
  std::array<checker::ExecutionRecorder, 2> rec;
  auto write = [&](uint32_t object, Bytes v) {
    const uint64_t id = rec[object].begin_write(writer.id(), sim.now(), v);
    writer.write(object, std::move(v),
                 [&, object, id](const registers::WriteResult& r) {
                   rec[object].complete_write(id, sim.now(), r.tag);
                 });
  };
  std::vector<std::pair<uint32_t, registers::ReadResult>> results;
  auto read = [&](uint32_t object) {
    const uint64_t id = rec[object].begin_read(reader.id(), sim.now());
    reader.read(object, [&, object, id](const registers::ReadResult& r) {
      rec[object].complete_read(id, sim.now(), r.value, r.tag);
      results.emplace_back(object, r);
    });
  };

  write(0, val("first"));
  write(1, val("one"));
  sim.run_until_idle();

  sim.delay_model().set_hook([](const net::Envelope& env) -> std::optional<TimeNs> {
    if (env.from.is_server() && env.to.is_server() &&
        (env.to.index == 1 || env.to.index == 2)) {
      return TimeNs{400'000};
    }
    return std::nullopt;
  });
  write(0, val("second"));
  ASSERT_TRUE(sim.run_until(
      [&] { return honest[0]->store(0).back().value == val("second"); }));
  ASSERT_EQ(honest[1]->store(0).back().value, val("first"));

  read(0);
  read(0);
  read(1);
  EXPECT_EQ(reader.in_flight(), 3u);
  sim.run_until_idle();  // no deadlines: each read must finish on its own

  ASSERT_EQ(results.size(), 3u);
  size_t two_round = 0;
  for (const auto& [object, r] : results) {
    EXPECT_FALSE(r.timed_out);
    if (object == 1) {
      EXPECT_EQ(r.value, val("one"));
    }
    if (r.rounds == 2) ++two_round;
  }
  EXPECT_GE(two_round, 1u) << "no read took the DATA-UPDATE path";
  checker::CheckOptions copts;
  copts.strict_validity = true;
  for (const auto& r : rec) {
    const auto res = check_safety(r.ops(), copts);
    EXPECT_TRUE(res.ok) << res.violation << "\n" << r.dump();
  }
}

/// Parses and keeps every register message delivered to it.
class ReplyProbe final : public net::IProcess {
 public:
  void on_message(const net::Envelope& env) override {
    if (auto m = registers::RegisterMessage::parse(env.payload)) got.push_back(*m);
  }
  size_t count(registers::MsgType type, uint64_t op_id) const {
    size_t n = 0;
    for (const auto& m : got) n += (m.type == type && m.op_id == op_id) ? 1 : 0;
    return n;
  }
  std::vector<registers::RegisterMessage> got;
};

/// Sends a bare register message (object 0) from `from` to `to`.
void send_message(net::Transport& net, const ProcessId& from,
                  const ProcessId& to, registers::MsgType type,
                  uint64_t op_id) {
  registers::RegisterMessage m;
  m.type = type;
  m.op_id = op_id;
  net.send(from, to, m.encode());
}

TEST(RbRegisterTest, ReadDoneThatOvertakesItsQueryOpensNoSubscription) {
  // Channels reorder, so a read's READ-DONE can reach a server before the
  // read's own QUERY-DATA. The late query is still answered, but must not
  // subscribe: no later READ-DONE would close that subscription, and the
  // server would push the finished read a DATA-UPDATE for every write.
  SimCluster cluster(rb_options(4, 1));
  cluster.start();
  const ProcessId reader = ProcessId::reader(7);
  const ProcessId server = ProcessId::server(0);
  ReplyProbe probe;
  cluster.sim().add_process(reader, &probe);
  // One fixed-delay link: messages arrive in the order they are sent.
  cluster.sim().delay_model().set_link_delay(reader, server, 1000);
  // 43 is a read still in progress; 42's READ-DONE overtook its query.
  send_message(cluster.sim(), reader, server, registers::MsgType::kQueryData, 43);
  send_message(cluster.sim(), reader, server, registers::MsgType::kReadDone, 42);
  send_message(cluster.sim(), reader, server, registers::MsgType::kQueryData, 42);
  cluster.sim().run_until_idle();
  EXPECT_EQ(probe.count(registers::MsgType::kDataResp, 42), 1u);
  EXPECT_EQ(probe.count(registers::MsgType::kDataResp, 43), 1u);

  cluster.write(0, val("after"));
  cluster.sim().run_until_idle();
  EXPECT_EQ(probe.count(registers::MsgType::kDataUpdate, 43), 1u);
  EXPECT_EQ(probe.count(registers::MsgType::kDataUpdate, 42), 0u);
}

TEST(RbRegisterTest, QueryResentAfterItsReadDoneOpensNoSubscription) {
  // A client that misses its deadline resends QUERY-DATA under the same op
  // id, and the resend can land after the read has finished and sent
  // READ-DONE. The resend is answered, but must not subscribe: nothing
  // would close that subscription, and the server would push the finished
  // read a DATA-UPDATE for every write.
  SimCluster cluster(rb_options(4, 1));
  cluster.start();
  const ProcessId reader = ProcessId::reader(7);
  const ProcessId server = ProcessId::server(0);
  ReplyProbe probe;
  cluster.sim().add_process(reader, &probe);
  // One fixed-delay link: messages arrive in the order they are sent.
  cluster.sim().delay_model().set_link_delay(reader, server, 1000);
  send_message(cluster.sim(), reader, server, registers::MsgType::kQueryData, 42);
  send_message(cluster.sim(), reader, server, registers::MsgType::kReadDone, 42);
  send_message(cluster.sim(), reader, server, registers::MsgType::kQueryData, 42);
  cluster.sim().run_until_idle();
  EXPECT_EQ(probe.count(registers::MsgType::kDataResp, 42), 2u);

  cluster.write(0, val("after"));
  cluster.sim().run_until_idle();
  EXPECT_EQ(probe.count(registers::MsgType::kDataUpdate, 42), 0u);
}

TEST(RbRegisterTest, ReadDoneFloodLeavesFinishedReadsAtCap) {
  // A reader may send READ-DONE for reads it never queried. The server
  // remembers only its last kFinishedReadsPerReader finished op ids, so a
  // flood cannot grow server state -- and a new read still subscribes.
  sim::Simulator sim(sim::SimConfig::with_fixed_delay(5, 1000));
  registers::SystemConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  std::vector<std::unique_ptr<registers::RbServer>> servers;
  for (uint32_t i = 0; i < cfg.n; ++i) {
    servers.push_back(std::make_unique<registers::RbServer>(
        ProcessId::server(i), cfg, &sim, Bytes{}));
    sim.add_process(ProcessId::server(i), servers.back().get());
  }
  const registers::ClientOptions rb{registers::ProtocolVariant::kRb};
  registers::RegisterClient writer(ProcessId::writer(0), cfg, &sim, rb);
  sim.add_process(ProcessId::writer(0), &writer);
  const ProcessId reader = ProcessId::reader(7);
  const ProcessId server = ProcessId::server(0);
  ReplyProbe probe;
  sim.add_process(reader, &probe);

  constexpr uint64_t kFlood = 100'000;
  for (uint64_t op = 1; op <= kFlood; ++op) {
    send_message(sim, reader, server, registers::MsgType::kReadDone, op);
  }
  sim.run_until_idle();
  EXPECT_EQ(servers[0]->finished_reads(),
            registers::RbServer::kFinishedReadsPerReader);

  // The newest flooded id still counts as finished; a fresh id subscribes.
  send_message(sim, reader, server, registers::MsgType::kQueryData, kFlood);
  send_message(sim, reader, server, registers::MsgType::kQueryData, kFlood + 1);
  sim.run_until_idle();
  writer.write(0, val("after"), [](const registers::WriteResult&) {});
  sim.run_until_idle();
  EXPECT_EQ(probe.count(registers::MsgType::kDataResp, kFlood), 1u);
  EXPECT_EQ(probe.count(registers::MsgType::kDataUpdate, kFlood), 0u);
  EXPECT_EQ(probe.count(registers::MsgType::kDataUpdate, kFlood + 1), 1u);
  EXPECT_EQ(servers[0]->finished_reads(),
            registers::RbServer::kFinishedReadsPerReader);
}

TEST(RbRegisterTest, ConcurrentWritersBothLand) {
  SimCluster cluster(rb_options(4, 1, 11));
  const auto w0 = cluster.start_write(0, val("a"));
  const auto w1 = cluster.start_write(1, val("b"));
  cluster.await(w0);
  cluster.await(w1);
  EXPECT_NE(cluster.write_result(w0).tag, cluster.write_result(w1).tag);
  const auto r = cluster.read(0);
  EXPECT_TRUE(r.value == val("a") || r.value == val("b"));
}

class RbRandomScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RbRandomScheduleTest, RandomExecutionIsSafe) {
  const uint64_t seed = GetParam();
  Rng rng(seed + 1000);
  const size_t f = 1 + rng.uniform(2);
  const size_t n = 3 * f + 1 + rng.uniform(2);
  SimCluster cluster(rb_options(n, f, seed));
  // Byzantine servers in the RB baseline: silent only -- an RbServer that
  // fabricates Bracha frames attacks the broadcast layer, whose resilience
  // bracha_test covers; here we exercise the register layer.
  for (size_t i = 0; i < f; ++i) {
    cluster.set_byzantine(rng.uniform(n), StrategyKind::kSilent);
  }

  std::vector<std::optional<uint64_t>> writer_op(2), reader_op(2);
  uint64_t counter = 0;
  for (int step = 0; step < 50; ++step) {
    for (auto& s : writer_op) {
      if (s && cluster.op_done(*s)) s.reset();
    }
    for (auto& s : reader_op) {
      if (s && cluster.op_done(*s)) s.reset();
    }
    const size_t c = rng.uniform(2);
    if (rng.bernoulli(0.4)) {
      if (!writer_op[c]) {
        writer_op[c] =
            cluster.start_write(c, workload::make_value(seed, counter++, 16));
      }
    } else if (!reader_op[c]) {
      reader_op[c] = cluster.start_read(c);
    }
    cluster.sim().run_until_time(cluster.sim().now() + rng.uniform(3000));
  }
  for (auto& s : writer_op) {
    if (s) cluster.await(*s);
  }
  for (auto& s : reader_op) {
    if (s) cluster.await(*s);
  }

  CheckOptions copts;
  copts.strict_validity = true;
  const auto res = check_safety(cluster.recorder().ops(), copts);
  EXPECT_TRUE(res.ok) << "seed=" << seed << ": " << res.violation << "\n"
                      << cluster.recorder().dump();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbRandomScheduleTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace bftreg::harness
