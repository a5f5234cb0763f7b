// Multi-object (shared-variable set) tests: one server set emulating many
// independent registers, per Section II-B's model of "a finite set of
// shared variables".
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "registers/registers.h"
#include "sim/simulator.h"

namespace bftreg::registers {
namespace {

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// A hand-wired cluster: n servers plus one writer/reader pair per object.
class MultiObjectFixture : public ::testing::Test {
 protected:
  static constexpr size_t kN = 5;
  static constexpr size_t kF = 1;

  MultiObjectFixture() : sim_(sim::SimConfig::with_uniform_delay(7, 100, 500)) {
    config_.n = kN;
    config_.f = kF;
    for (uint32_t i = 0; i < kN; ++i) {
      servers_.push_back(std::make_unique<RegisterServer>(ProcessId::server(i),
                                                          config_, &sim_, Bytes{}));
      sim_.add_process(ProcessId::server(i), servers_.back().get());
    }
  }

  /// Creates a writer/reader pair for `object`; ids must be unique.
  void add_clients(uint32_t object) {
    auto w = std::make_unique<RegisterClient>(ProcessId::writer(object), config_,
                                              &sim_);
    auto r = std::make_unique<RegisterClient>(ProcessId::reader(object), config_,
                                              &sim_);
    sim_.add_process(ProcessId::writer(object), w.get());
    sim_.add_process(ProcessId::reader(object), r.get());
    writers_[object] = std::move(w);
    readers_[object] = std::move(r);
  }

  WriteResult write(uint32_t object, Bytes value) {
    WriteResult out;
    bool done = false;
    writers_[object]->write(object, std::move(value), [&](const WriteResult& w) {
      out = w;
      done = true;
    });
    EXPECT_TRUE(sim_.run_until([&] { return done; }));
    return out;
  }

  ReadResult read(uint32_t object) {
    ReadResult out;
    bool done = false;
    readers_[object]->read(object, [&](const ReadResult& r) {
      out = r;
      done = true;
    });
    EXPECT_TRUE(sim_.run_until([&] { return done; }));
    return out;
  }

  sim::Simulator sim_;
  SystemConfig config_;
  std::vector<std::unique_ptr<RegisterServer>> servers_;
  std::map<uint32_t, std::unique_ptr<RegisterClient>> writers_;
  std::map<uint32_t, std::unique_ptr<RegisterClient>> readers_;
};

TEST_F(MultiObjectFixture, ObjectsAreIsolated) {
  add_clients(1);
  add_clients(2);
  write(1, val("one"));
  write(2, val("two"));
  EXPECT_EQ(read(1).value, val("one"));
  EXPECT_EQ(read(2).value, val("two"));
}

TEST_F(MultiObjectFixture, UnwrittenObjectReturnsInitialValue) {
  add_clients(1);
  add_clients(9);
  write(1, val("data"));
  EXPECT_EQ(read(9).value, Bytes{});
}

TEST_F(MultiObjectFixture, TagsAdvanceIndependentlyPerObject) {
  add_clients(1);
  add_clients(2);
  for (int i = 0; i < 3; ++i) write(1, val("a" + std::to_string(i)));
  const auto w2 = write(2, val("b"));
  // Object 2's first write gets tag 1 regardless of object 1's history.
  EXPECT_EQ(w2.tag.num, 1u);
  const auto w1 = write(1, val("a3"));
  EXPECT_EQ(w1.tag.num, 4u);
}

TEST_F(MultiObjectFixture, ServerStoresPerObjectLists) {
  add_clients(1);
  add_clients(2);
  write(1, val("x"));
  write(1, val("y"));
  write(2, val("z"));
  sim_.run_until_idle();
  // Every server knows the default object plus 1 and 2.
  EXPECT_EQ(servers_[0]->objects_known(), 3u);
  EXPECT_EQ(servers_[0]->store(1).size(), 3u);  // t0 + two writes
  EXPECT_EQ(servers_[0]->store(2).size(), 2u);  // t0 + one write
  EXPECT_EQ(servers_[0]->max_value(1), val("y"));
  EXPECT_EQ(servers_[0]->max_value(2), val("z"));
}

TEST_F(MultiObjectFixture, ConcurrentOpsOnDifferentObjectsDoNotInterfere) {
  add_clients(1);
  add_clients(2);
  bool d1 = false;
  bool d2 = false;
  Bytes r2;
  writers_[1]->write(1, val("big"), [&](const WriteResult&) { d1 = true; });
  readers_[2]->read(2, [&](const ReadResult& r) {
    d2 = true;
    r2 = r.value;
  });
  EXPECT_TRUE(sim_.run_until([&] { return d1 && d2; }));
  EXPECT_EQ(r2, Bytes{});  // object 2 untouched by object 1's write
}

TEST_F(MultiObjectFixture, HistoryAndTwoRoundReadersHonorObjects) {
  add_clients(3);
  write(3, val("h"));

  RegisterClient hist(ProcessId::reader(50), config_, &sim_,
                      {ProtocolVariant::kBsrHistory});
  sim_.add_process(ProcessId::reader(50), &hist);
  bool done = false;
  Bytes got;
  hist.read(/*object=*/3, [&](const ReadResult& r) {
    done = true;
    got = r.value;
  });
  ASSERT_TRUE(sim_.run_until([&] { return done; }));
  EXPECT_EQ(got, val("h"));

  RegisterClient two(ProcessId::reader(51), config_, &sim_,
                     {ProtocolVariant::kBsrTwoRound});
  sim_.add_process(ProcessId::reader(51), &two);
  done = false;
  two.read(/*object=*/3, [&](const ReadResult& r) {
    done = true;
    got = r.value;
  });
  ASSERT_TRUE(sim_.run_until([&] { return done; }));
  EXPECT_EQ(got, val("h"));

  // A read of a different object still sees v0.
  RegisterClient other(ProcessId::reader(52), config_, &sim_,
                       {ProtocolVariant::kBsrTwoRound});
  sim_.add_process(ProcessId::reader(52), &other);
  done = false;
  other.read(/*object=*/4, [&](const ReadResult& r) {
    done = true;
    got = r.value;
  });
  ASSERT_TRUE(sim_.run_until([&] { return done; }));
  EXPECT_EQ(got, Bytes{});
}

// BCSR with objects: coded elements are stored per object.
TEST(MultiObjectBcsrTest, CodedObjectsAreIsolated) {
  sim::Simulator sim(sim::SimConfig::with_uniform_delay(3, 100, 500));
  SystemConfig cfg;
  cfg.n = 6;
  cfg.f = 1;
  const auto initial = bcsr_initial_elements(cfg);
  std::vector<std::unique_ptr<RegisterServer>> servers;
  for (uint32_t i = 0; i < cfg.n; ++i) {
    servers.push_back(std::make_unique<RegisterServer>(ProcessId::server(i), cfg,
                                                       &sim, initial[i]));
    sim.add_process(ProcessId::server(i), servers.back().get());
  }
  const ClientOptions bcsr{ProtocolVariant::kBcsr};
  RegisterClient w1(ProcessId::writer(0), cfg, &sim, bcsr);
  RegisterClient w2(ProcessId::writer(1), cfg, &sim, bcsr);
  RegisterClient r1(ProcessId::reader(0), cfg, &sim, bcsr);
  RegisterClient r2(ProcessId::reader(1), cfg, &sim, bcsr);
  sim.add_process(ProcessId::writer(0), &w1);
  sim.add_process(ProcessId::writer(1), &w2);
  sim.add_process(ProcessId::reader(0), &r1);
  sim.add_process(ProcessId::reader(1), &r2);

  bool d = false;
  w1.write(1, Bytes(100, 0xAA), [&](const WriteResult&) { d = true; });
  ASSERT_TRUE(sim.run_until([&] { return d; }));
  d = false;
  w2.write(2, Bytes(100, 0xBB), [&](const WriteResult&) { d = true; });
  ASSERT_TRUE(sim.run_until([&] { return d; }));

  Bytes got1;
  Bytes got2;
  d = false;
  r1.read(1, [&](const ReadResult& r) {
    got1 = r.value;
    d = true;
  });
  ASSERT_TRUE(sim.run_until([&] { return d; }));
  d = false;
  r2.read(2, [&](const ReadResult& r) {
    got2 = r.value;
    d = true;
  });
  ASSERT_TRUE(sim.run_until([&] { return d; }));

  EXPECT_EQ(got1, Bytes(100, 0xAA));
  EXPECT_EQ(got2, Bytes(100, 0xBB));
}

// RB baseline with objects.
TEST(MultiObjectRbTest, BaselineObjectsAreIsolated) {
  sim::Simulator sim(sim::SimConfig::with_uniform_delay(5, 100, 500));
  SystemConfig cfg;
  cfg.n = 4;
  cfg.f = 1;
  std::vector<std::unique_ptr<RbServer>> servers;
  for (uint32_t i = 0; i < cfg.n; ++i) {
    servers.push_back(
        std::make_unique<RbServer>(ProcessId::server(i), cfg, &sim, Bytes{}));
    sim.add_process(ProcessId::server(i), servers.back().get());
  }
  const ClientOptions rb{ProtocolVariant::kRb};
  RegisterClient w1(ProcessId::writer(0), cfg, &sim, rb);
  RegisterClient r1(ProcessId::reader(0), cfg, &sim, rb);
  RegisterClient r2(ProcessId::reader(1), cfg, &sim, rb);
  sim.add_process(ProcessId::writer(0), &w1);
  sim.add_process(ProcessId::reader(0), &r1);
  sim.add_process(ProcessId::reader(1), &r2);

  bool d = false;
  w1.write(1, Bytes{'q'}, [&](const WriteResult&) { d = true; });
  ASSERT_TRUE(sim.run_until([&] { return d; }));

  Bytes got1;
  Bytes got2{'x'};
  d = false;
  r1.read(1, [&](const ReadResult& r) {
    got1 = r.value;
    d = true;
  });
  ASSERT_TRUE(sim.run_until([&] { return d; }));
  d = false;
  r2.read(2, [&](const ReadResult& r) {
    got2 = r.value;
    d = true;
  });
  ASSERT_TRUE(sim.run_until([&] { return d; }));
  EXPECT_EQ(got1, Bytes{'q'});
  EXPECT_EQ(got2, Bytes{});
}

}  // namespace
}  // namespace bftreg::registers
