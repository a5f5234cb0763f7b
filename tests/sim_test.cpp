// Tests for the deterministic discrete-event simulator.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "adversary/churn.h"
#include "harness/scenarios.h"
#include "net/transport.h"
#include "registers/messages.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace bftreg::sim {
namespace {

/// Records every delivered envelope; can auto-reply.
class Recorder final : public net::IProcess {
 public:
  explicit Recorder(ProcessId self, net::Transport* transport = nullptr)
      : self_(self), transport_(transport) {}

  void on_start() override { started_ = true; }

  void on_message(const net::Envelope& env) override {
    received_.push_back(env);
    if (transport_ != nullptr && !env.payload.empty() && env.payload[0] == 'P') {
      transport_->send(self_, env.from, Bytes{'R'});
    }
  }

  bool started() const { return started_; }
  const std::vector<net::Envelope>& received() const { return received_; }

 private:
  ProcessId self_;
  net::Transport* transport_;
  bool started_{false};
  std::vector<net::Envelope> received_;
};

TEST(SimulatorTest, DeliversWithConfiguredDelay) {
  Simulator sim(SimConfig::with_fixed_delay(1, 500));
  Recorder a(ProcessId::writer(0));
  Recorder b(ProcessId::server(0));
  sim.add_process(ProcessId::writer(0), &a);
  sim.add_process(ProcessId::server(0), &b);

  sim.send(ProcessId::writer(0), ProcessId::server(0), Bytes{1, 2, 3});
  sim.run_until_idle();

  ASSERT_EQ(b.received().size(), 1u);
  EXPECT_EQ(b.received()[0].payload, (Bytes{1, 2, 3}));
  EXPECT_EQ(b.received()[0].from, ProcessId::writer(0));
  EXPECT_EQ(sim.now(), 500u);
}

TEST(SimulatorTest, StartAllInvokesOnStart) {
  Simulator sim(SimConfig::with_fixed_delay(1, 10));
  Recorder a(ProcessId::server(0));
  sim.add_process(ProcessId::server(0), &a);
  sim.start_all();
  sim.run_until_idle();
  EXPECT_TRUE(a.started());
}

TEST(SimulatorTest, RequestReplyRoundTrip) {
  Simulator sim(SimConfig::with_fixed_delay(2, 100));
  Recorder client(ProcessId::reader(0), &sim);
  Recorder server(ProcessId::server(0), &sim);
  sim.add_process(ProcessId::reader(0), &client);
  sim.add_process(ProcessId::server(0), &server);

  sim.send(ProcessId::reader(0), ProcessId::server(0), Bytes{'P'});
  sim.run_until_idle();

  ASSERT_EQ(client.received().size(), 1u);
  EXPECT_EQ(client.received()[0].payload, (Bytes{'R'}));
  EXPECT_EQ(sim.now(), 200u);  // one round trip = 2 one-way delays
}

TEST(SimulatorTest, IdenticalSeedsGiveIdenticalSchedules) {
  auto run = [](uint64_t seed) {
    Simulator sim(SimConfig::with_uniform_delay(seed, 10, 1000));
    Recorder dst(ProcessId::server(0));
    sim.add_process(ProcessId::server(0), &dst);
    for (uint8_t i = 0; i < 50; ++i) {
      sim.send(ProcessId::writer(0), ProcessId::server(0), Bytes{i});
    }
    sim.run_until_idle();
    std::vector<uint8_t> order;
    for (const auto& env : dst.received()) order.push_back(env.payload[0]);
    return order;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // overwhelmingly likely with 50 messages
}

TEST(SimulatorTest, RandomDelaysReorderMessages) {
  // The asynchronous model allows arbitrary per-channel reordering.
  Simulator sim(SimConfig::with_uniform_delay(7, 1, 10000));
  Recorder dst(ProcessId::server(0));
  sim.add_process(ProcessId::server(0), &dst);
  for (uint8_t i = 0; i < 100; ++i) {
    sim.send(ProcessId::writer(0), ProcessId::server(0), Bytes{i});
  }
  sim.run_until_idle();
  ASSERT_EQ(dst.received().size(), 100u);
  bool reordered = false;
  for (size_t i = 1; i < dst.received().size(); ++i) {
    if (dst.received()[i].payload[0] < dst.received()[i - 1].payload[0]) {
      reordered = true;
    }
  }
  EXPECT_TRUE(reordered);
}

TEST(SimulatorTest, CrashedDestinationReceivesNothing) {
  Simulator sim(SimConfig::with_fixed_delay(1, 10));
  Recorder dst(ProcessId::server(0));
  sim.add_process(ProcessId::server(0), &dst);
  sim.send(ProcessId::writer(0), ProcessId::server(0), Bytes{1});
  sim.mark_crashed(ProcessId::server(0));
  sim.run_until_idle();
  EXPECT_TRUE(dst.received().empty());
}

TEST(SimulatorTest, CrashedSenderPlacesNoMessages) {
  Simulator sim(SimConfig::with_fixed_delay(1, 10));
  Recorder dst(ProcessId::server(0));
  sim.add_process(ProcessId::server(0), &dst);
  sim.mark_crashed(ProcessId::writer(0));
  sim.send(ProcessId::writer(0), ProcessId::server(0), Bytes{1});
  sim.run_until_idle();
  EXPECT_TRUE(dst.received().empty());
  EXPECT_EQ(sim.metrics().snapshot().messages_sent, 0u);
}

TEST(SimulatorTest, ForgedMacIsDroppedAndCounted) {
  Simulator sim(SimConfig::with_fixed_delay(1, 10));
  Recorder dst(ProcessId::reader(0));
  sim.add_process(ProcessId::reader(0), &dst);

  // A Byzantine server fabricates an envelope claiming to come from another
  // server without knowing the channel key.
  net::Envelope forged;
  forged.from = ProcessId::server(1);
  forged.to = ProcessId::reader(0);
  forged.payload = Bytes{0xEE};
  forged.mac = 0xBADC0FFEE;  // not a valid seal
  sim.inject_raw(std::move(forged));
  sim.run_until_idle();

  EXPECT_TRUE(dst.received().empty());
  EXPECT_EQ(sim.metrics().snapshot().auth_failures, 1u);
}

TEST(SimulatorTest, ScriptedLinkDelayOverridesBase) {
  Simulator sim(SimConfig::with_fixed_delay(1, 100));
  Recorder fast(ProcessId::server(0));
  Recorder slow(ProcessId::server(1));
  sim.add_process(ProcessId::server(0), &fast);
  sim.add_process(ProcessId::server(1), &slow);

  sim.delay_model().set_link_delay(ProcessId::writer(0), ProcessId::server(1), 9999);
  sim.send(ProcessId::writer(0), ProcessId::server(0), Bytes{1});
  sim.send(ProcessId::writer(0), ProcessId::server(1), Bytes{2});

  sim.run_until_time(100);
  EXPECT_EQ(fast.received().size(), 1u);
  EXPECT_TRUE(slow.received().empty());
  sim.run_until_idle();
  EXPECT_EQ(slow.received().size(), 1u);
  EXPECT_EQ(sim.now(), 9999u);
}

TEST(SimulatorTest, PayloadHookWinsOverLinkOverride) {
  Simulator sim(SimConfig::with_fixed_delay(1, 100));
  Recorder dst(ProcessId::server(0));
  sim.add_process(ProcessId::server(0), &dst);

  sim.delay_model().set_link_delay(ProcessId::writer(0), ProcessId::server(0), 5000);
  sim.delay_model().set_hook([](const net::Envelope& env) -> std::optional<TimeNs> {
    if (!env.payload.empty() && env.payload[0] == 'X') return TimeNs{1};
    return std::nullopt;
  });
  sim.send(ProcessId::writer(0), ProcessId::server(0), Bytes{'X'});
  sim.send(ProcessId::writer(0), ProcessId::server(0), Bytes{'Y'});
  sim.run_until_idle();

  ASSERT_EQ(dst.received().size(), 2u);
  EXPECT_EQ(dst.received()[0].payload, (Bytes{'X'}));  // hook made it fast
  EXPECT_EQ(dst.received()[1].payload, (Bytes{'Y'}));
}

TEST(SimulatorTest, SchedulingPrimitives) {
  Simulator sim(SimConfig::with_fixed_delay(1, 10));
  std::vector<int> order;
  sim.schedule_after(300, [&] { order.push_back(3); });
  sim.schedule_after(100, [&] { order.push_back(1); });
  sim.schedule_after(200, [&] { order.push_back(2); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300u);
}

TEST(SimulatorTest, EqualTimeEventsRunInScheduleOrder) {
  Simulator sim(SimConfig::with_fixed_delay(1, 10));
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(77, [&order, i] { order.push_back(i); });
  }
  sim.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, RunUntilPredicate) {
  Simulator sim(SimConfig::with_fixed_delay(1, 10));
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(static_cast<TimeNs>(i * 10), [&] { ++count; });
  }
  EXPECT_TRUE(sim.run_until([&] { return count == 5; }));
  EXPECT_EQ(count, 5);
  sim.run_until_idle();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, RunUntilReturnsFalseWhenQueueDrains) {
  Simulator sim(SimConfig::with_fixed_delay(1, 10));
  EXPECT_FALSE(sim.run_until([] { return false; }));
}

TEST(SimulatorTest, MetricsCountSendsAndDeliveries) {
  Simulator sim(SimConfig::with_fixed_delay(1, 10));
  Recorder dst(ProcessId::server(0));
  sim.add_process(ProcessId::server(0), &dst);
  sim.send(ProcessId::writer(0), ProcessId::server(0), Bytes(100, 0));
  sim.send(ProcessId::writer(0), ProcessId::server(0), Bytes(50, 0));
  sim.run_until_idle();
  const auto m = sim.metrics().snapshot();
  EXPECT_EQ(m.messages_sent, 2u);
  EXPECT_EQ(m.bytes_sent, 150u);
  EXPECT_EQ(m.messages_delivered, 2u);
}

TEST(SimulatorTest, PostRunsInProcessContextUnlessCrashed) {
  Simulator sim(SimConfig::with_fixed_delay(1, 10));
  int runs = 0;
  sim.post(ProcessId::writer(0), [&] { ++runs; });
  sim.mark_crashed(ProcessId::writer(1));
  sim.post(ProcessId::writer(1), [&] { ++runs; });
  sim.run_until_idle();
  EXPECT_EQ(runs, 1);
}

TEST(SimulatorTest, RestartRetiresTasksAndTimersOfTheOldObject) {
  // Crash/rejoin: mark_crashed, add_process over the same pid, revive. A
  // task or timer posted before it and due after it belongs to the old
  // object and never runs; one armed after it does, and messages reach the
  // new object.
  Simulator sim(SimConfig::with_fixed_delay(1, 10));
  const ProcessId pid = ProcessId::writer(0);
  Recorder old_proc(pid);
  Recorder new_proc(pid);
  sim.add_process(pid, &old_proc);
  bool old_task = false;
  bool old_timer = false;
  bool new_timer = false;
  sim.post_after(pid, 50'000, [&] { old_timer = true; });
  sim.run_until_time(1'000);
  sim.post(pid, [&] { old_task = true; });
  sim.mark_crashed(pid);
  sim.add_process(pid, &new_proc);
  sim.revive(pid);
  sim.post_after(pid, 50'000, [&] { new_timer = true; });
  sim.send(ProcessId::server(0), pid, Bytes{1});
  sim.run_until_idle();
  EXPECT_FALSE(old_task);
  EXPECT_FALSE(old_timer);
  EXPECT_TRUE(new_timer);
  EXPECT_EQ(new_proc.received().size(), 1u);
  EXPECT_TRUE(old_proc.received().empty());
}

// ---------------------------------------------- churn schedule seeding

/// Unique temp directory per test; removed recursively on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& stem) {
    path_ = (std::filesystem::temp_directory_path() /
             ("bftreg_" + stem + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

TEST(ScheduleSeedTest, IsAPureFunctionOfNameAndBase) {
  EXPECT_EQ(harness::schedule_seed("crash-during-write", 7),
            harness::schedule_seed("crash-during-write", 7));
  EXPECT_NE(harness::schedule_seed("crash-during-write", 7),
            harness::schedule_seed("rejoin-mid-round", 7));
  // The base seed folds in by xor, so varying it perturbs every schedule.
  EXPECT_EQ(harness::schedule_seed("x", 0) ^ 42u,
            harness::schedule_seed("x", 42));
}

TEST(ScheduleSeedTest, ChurnRunsAreReproducibleAcrossTestOrdering) {
  // ctest may shuffle tests, and earlier operations advance the shared
  // simulator RNG. run_churn_schedule reseeds from schedule_seed, so the
  // SAME schedule must produce the SAME operation values and results
  // whether or not unrelated traffic ran first.
  auto run = [](bool with_prelude, const std::string& wal_dir) {
    harness::ClusterOptions o;
    o.protocol = registers::ProtocolVariant::kBsr;
    o.config.n = 5;
    o.config.f = 1;
    o.seed = 7;
    o.wal_dir = wal_dir;
    harness::SimCluster cluster(o);
    if (with_prelude) {
      // Unrelated traffic: consumes delay/value draws before the schedule.
      cluster.write(0, Bytes{'p', 'r', 'e'});
      cluster.read(0);
    }
    const auto out = harness::run_churn_schedule(
        cluster, adversary::crash_during_write_schedule(1));
    std::vector<Bytes> values;
    for (const uint64_t id : out.write_ids) {
      for (const auto& op : cluster.recorder().ops()) {
        if (op.id == id) values.push_back(op.value);
      }
    }
    for (const uint64_t id : out.read_ids) {
      values.push_back(cluster.read_result(id).value);
    }
    return std::make_pair(out.seed, values);
  };

  TempDir wal_a("churn_seed_a");
  TempDir wal_b("churn_seed_b");
  const auto [seed_a, values_a] = run(false, wal_a.path());
  const auto [seed_b, values_b] = run(true, wal_b.path());
  EXPECT_EQ(seed_a, seed_b);
  ASSERT_FALSE(values_a.empty());
  EXPECT_EQ(values_a, values_b)
      << "schedule execution must not depend on what ran before it";
}

// ---------------------------------------------- message-trace identity
//
// A seeded simulator run is a pure function of its seed, so a refactor of
// the client or harness layers can show that it changed nothing on the
// wire: every send of the runs below is folded into an FNV-1a digest that
// is pinned here. For each send the digest takes the send time, sender,
// receiver and payload size. Register messages add every field a receiver
// acts on except the op id, which is client-local bookkeeping that a
// client refactor may legitimately renumber. Server-to-server frames --
// Bracha ECHO/READY in the RB baseline -- go in as raw bytes.

class TraceDigest {
 public:
  /// Installs a delay hook that records each send and returns nullopt, so
  /// the base delay model still draws every delay: recording takes no
  /// randomness and leaves the schedule untouched.
  explicit TraceDigest(Simulator& sim) {
    sim.delay_model().set_hook(
        [this](const net::Envelope& env) -> std::optional<TimeNs> {
          record(env);
          return std::nullopt;
        });
  }
  // The hook holds `this`.
  TraceDigest(const TraceDigest&) = delete;
  TraceDigest& operator=(const TraceDigest&) = delete;

  uint64_t digest() const { return h_; }
  uint64_t messages() const { return messages_; }

 private:
  void record(const net::Envelope& env) {
    ++messages_;
    mix(env.sent_at);
    mix_pid(env.from);
    mix_pid(env.to);
    mix(env.payload.size());
    if (env.from.is_server() && env.to.is_server()) {
      mix_bytes(env.payload);
      return;
    }
    auto msg = registers::RegisterMessage::parse(env.payload);
    if (!msg) {
      mix_bytes(env.payload);
      return;
    }
    mix(static_cast<uint64_t>(msg->type));
    mix(msg->object);
    mix_tag(msg->tag);
    mix_bytes(msg->value);
    mix(msg->history.size());
    for (const auto& tv : msg->history) {
      mix_tag(tv.tag);
      mix_bytes(tv.value);
    }
    mix(msg->tags.size());
    for (const Tag& t : msg->tags) mix_tag(t);
    mix(msg->objects.size());
    for (const uint32_t o : msg->objects) mix(o);
  }

  void mix(uint64_t v) { h_ = fnv1a64(&v, sizeof(v), h_); }
  void mix_bytes(BytesView b) {
    mix(b.size());
    h_ = fnv1a64(b.data(), b.size(), h_);
  }
  void mix_pid(const ProcessId& p) {
    mix(static_cast<uint64_t>(p.role));
    mix(p.index);
  }
  void mix_tag(const Tag& t) {
    mix(t.num);
    mix_pid(t.writer);
  }

  uint64_t h_{0xcbf29ce484222325ULL};
  uint64_t messages_{0};
};

struct PinnedTrace {
  registers::ProtocolVariant protocol;
  uint64_t digest;
  uint64_t messages;
};

harness::ClusterOptions trace_options(registers::ProtocolVariant protocol,
                                      size_t writers, size_t readers) {
  harness::ClusterOptions o;
  o.protocol = protocol;
  o.config.f = 1;
  o.config.n = registers::min_servers(protocol, 1);
  o.num_writers = writers;
  o.num_readers = readers;
  o.seed = 2020;
  return o;
}

/// 24 operations, one at a time: each is driven to quiescence (every
/// straggler delivered) before the next starts.
void run_sequential_mixed(harness::SimCluster& cluster) {
  Rng rng(77);
  const size_t writers = cluster.options().num_writers;
  const size_t readers = cluster.options().num_readers;
  uint64_t counter = 0;
  for (int i = 0; i < 24; ++i) {
    if (i == 0 || rng.bernoulli(0.4)) {
      cluster.start_write(rng.uniform(writers),
                          workload::make_value(77, counter++, 24));
    } else {
      cluster.start_read(rng.uniform(readers));
    }
    cluster.sim().run_until_idle();
  }
}

/// Operations overlap: each step starts an op on a random idle client,
/// then advances virtual time by less than a round trip or two.
void run_overlapping(harness::SimCluster& cluster) {
  Rng rng(91);
  std::vector<std::optional<uint64_t>> wop(cluster.options().num_writers);
  std::vector<std::optional<uint64_t>> rop(cluster.options().num_readers);
  uint64_t counter = 0;
  for (int step = 0; step < 60; ++step) {
    for (auto* ops : {&wop, &rop}) {
      for (auto& s : *ops) {
        if (s && cluster.op_done(*s)) s.reset();
      }
    }
    if (rng.bernoulli(0.4)) {
      const size_t w = rng.uniform(wop.size());
      if (!wop[w]) {
        wop[w] = cluster.start_write(w, workload::make_value(91, counter++, 24));
      }
    } else {
      const size_t r = rng.uniform(rop.size());
      if (!rop[r]) rop[r] = cluster.start_read(r);
    }
    cluster.sim().run_until_time(cluster.sim().now() + rng.uniform(3000));
  }
  cluster.sim().run_until_idle();
  for (auto* ops : {&wop, &rop}) {
    for (auto& s : *ops) {
      if (s) {
        EXPECT_TRUE(cluster.op_done(*s));
      }
    }
  }
}

// Recorded before the single-op protocol wrappers were folded into
// RegisterClient; any client/harness refactor must reproduce them exactly.
// A wire-encoding change moves every digest, because each mixes the
// payload size: re-pin only after digests that mix the size of
// server-to-server envelopes alone come out equal on both sides. Deleting
// a decoded field moves every digest too: re-pin to what the old code
// gives with that field's mix() removed (done when the membership epoch
// left the wire; message counts did not move).
TEST(TraceIdentityTest, SequentialMixedWorkloadTracesArePinned) {
  const std::array<PinnedTrace, 6> pinned{{
      {registers::ProtocolVariant::kBsr, 17491381961588813175ULL, 360},
      {registers::ProtocolVariant::kBsrHistory, 14681769940248113287ULL, 360},
      {registers::ProtocolVariant::kBsrTwoRound, 7631160365663064786ULL, 540},
      {registers::ProtocolVariant::kBcsr, 11277053290454526678ULL, 432},
      {registers::ProtocolVariant::kRb, 9798556580265241418ULL, 624},
      {registers::ProtocolVariant::kBsrWriteBack, 1701510526854243040ULL, 480},
  }};
  for (const auto& p : pinned) {
    harness::SimCluster cluster(trace_options(p.protocol, 2, 2));
    cluster.start();
    TraceDigest trace(cluster.sim());
    run_sequential_mixed(cluster);
    EXPECT_EQ(trace.digest(), p.digest) << registers::to_string(p.protocol);
    EXPECT_EQ(trace.messages(), p.messages) << registers::to_string(p.protocol);
  }
}

TEST(TraceIdentityTest, OverlappingWorkloadTracesArePinned) {
  const std::array<PinnedTrace, 5> pinned{{
      {registers::ProtocolVariant::kBsr, 12122566181201430531ULL, 680},
      {registers::ProtocolVariant::kBsrHistory, 2949978105100820823ULL, 680},
      {registers::ProtocolVariant::kBsrTwoRound, 8747358008432126211ULL, 1010},
      {registers::ProtocolVariant::kBcsr, 17512687214667374608ULL, 648},
      {registers::ProtocolVariant::kBsrWriteBack, 16567435774921441752ULL, 840},
  }};
  for (const auto& p : pinned) {
    // BCSR is single-writer: concurrent writes may legitimately fail to
    // decode (footnote 2), which this trace is not about.
    const size_t writers = p.protocol == registers::ProtocolVariant::kBcsr ? 1 : 2;
    harness::SimCluster cluster(trace_options(p.protocol, writers, 2));
    cluster.start();
    TraceDigest trace(cluster.sim());
    run_overlapping(cluster);
    EXPECT_EQ(trace.digest(), p.digest) << registers::to_string(p.protocol);
    EXPECT_EQ(trace.messages(), p.messages) << registers::to_string(p.protocol);
  }
}

}  // namespace
}  // namespace bftreg::sim
