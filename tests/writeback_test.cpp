// Tests for the write-back reader extension (BSR-WB): atomic reads at the
// price of a second round.
#include <gtest/gtest.h>

#include <string>

#include "checker/consistency.h"
#include "harness/sim_cluster.h"
#include "workload/workload.h"

namespace bftreg::harness {
namespace {

using adversary::StrategyKind;
using checker::CheckOptions;
using checker::check_atomicity;
using checker::check_safety;
using registers::ProtocolVariant;

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

ClusterOptions wb_options(size_t n, size_t f, uint64_t seed = 1,
                          size_t writers = 2, size_t readers = 2) {
  ClusterOptions o;
  o.protocol = ProtocolVariant::kBsrWriteBack;
  o.config.n = n;
  o.config.f = f;
  o.num_writers = writers;
  o.num_readers = readers;
  o.seed = seed;
  return o;
}

TEST(WriteBackTest, ReadAfterWriteReturnsWrittenValue) {
  SimCluster cluster(wb_options(5, 1));
  cluster.write(0, val("wb"));
  const auto r = cluster.read(0);
  EXPECT_EQ(r.value, val("wb"));
  EXPECT_EQ(r.rounds, 2);  // the price of atomicity
}

TEST(WriteBackTest, InitialReadWorks) {
  SimCluster cluster(wb_options(5, 1));
  EXPECT_EQ(cluster.read(0).value, Bytes{});
}

TEST(WriteBackTest, SurvivesByzantineServers) {
  SimCluster cluster(wb_options(9, 2, 3));
  cluster.set_byzantine(1, StrategyKind::kFabricate);
  cluster.set_byzantine(6, StrategyKind::kStale);
  for (int i = 0; i < 8; ++i) {
    cluster.write(i % 2, val("w" + std::to_string(i)));
    EXPECT_EQ(cluster.read(i % 2).value, val("w" + std::to_string(i)));
  }
  CheckOptions copts;
  copts.strict_validity = true;
  EXPECT_TRUE(check_safety(cluster.recorder().ops(), copts).ok);
}

TEST(WriteBackTest, DefeatsTheCrossReaderInversionSchedule) {
  // The exact schedule under which plain BSR is provably not atomic
  // (extensions_test.cpp/AtomicityTest.BsrIsProvablyNotAtomic): w(v2)
  // reaches only s0 and s1; reader 0's quorum sees it, reader 1's barely
  // does. With write-back, reader 0 replicates v2 to n-f servers before
  // returning it, so reader 1 must see it too.
  SimCluster cluster(wb_options(5, 1, 9));
  cluster.start();
  cluster.write(0, val("v1"));
  cluster.sim().run_until_idle();

  auto& delay = cluster.sim().delay_model();
  auto block_writer_puts = [](const net::Envelope& env) -> std::optional<TimeNs> {
    auto msg = registers::RegisterMessage::parse(env.payload);
    // Only the WRITER's put-data is withheld from s2..s4; the reader's
    // write-back put-data must pass.
    if (msg && msg->type == registers::MsgType::kPutData &&
        env.from.role == Role::kWriter && env.to.is_server() &&
        env.to.index >= 2) {
      return TimeNs{1'000'000'000};
    }
    return std::nullopt;
  };
  delay.set_hook(block_writer_puts);
  const uint64_t wid = cluster.start_write(1, val("v2"));
  cluster.sim().run_until_time(cluster.sim().now() + 100'000);
  EXPECT_FALSE(cluster.op_done(wid));

  // Reader 0 with server 4 delayed: quorum includes s0, s1 -> sees v2.
  delay.set_hook([&](const net::Envelope& env) -> std::optional<TimeNs> {
    if (auto d = block_writer_puts(env)) return d;
    if (env.from == ProcessId::server(4) && env.to == ProcessId::reader(0)) {
      return TimeNs{1'000'000'000};
    }
    return std::nullopt;
  });
  const auto r1 = cluster.read(0);
  EXPECT_EQ(r1.value, val("v2"));

  // Reader 1 with server 0's replies delayed: under plain BSR this read
  // returned v1; the write-back forces v2.
  delay.set_hook([&](const net::Envelope& env) -> std::optional<TimeNs> {
    if (auto d = block_writer_puts(env)) return d;
    if (env.from == ProcessId::server(0) && env.to == ProcessId::reader(1)) {
      return TimeNs{1'000'000'000};
    }
    return std::nullopt;
  });
  const auto r2 = cluster.read(1);
  EXPECT_EQ(r2.value, val("v2"));

  CheckOptions copts;
  const auto atom = check_atomicity(cluster.recorder().ops(), copts);
  EXPECT_TRUE(atom.ok) << atom.violation;
}

class WriteBackRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WriteBackRandomTest, RandomExecutionIsAtomic) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 101 + 7);
  const size_t f = 1 + rng.uniform(2);
  const size_t n = 4 * f + 1 + rng.uniform(2);
  SimCluster cluster(wb_options(n, f, seed, 2, 3));
  for (size_t i = 0; i < f; ++i) {
    cluster.set_byzantine(rng.uniform(n),
                          adversary::kAllStrategyKinds[rng.uniform(
                              std::size(adversary::kAllStrategyKinds))]);
  }

  std::vector<std::optional<uint64_t>> wop(2), rop(3);
  uint64_t counter = 0;
  for (int step = 0; step < 60; ++step) {
    for (auto& s : wop) {
      if (s && cluster.op_done(*s)) s.reset();
    }
    for (auto& s : rop) {
      if (s && cluster.op_done(*s)) s.reset();
    }
    const size_t w = rng.uniform(2);
    if (rng.bernoulli(0.4) && !wop[w]) {
      wop[w] = cluster.start_write(w, workload::make_value(seed, counter++, 24));
    }
    const size_t r = rng.uniform(3);
    if (rng.bernoulli(0.5) && !rop[r]) rop[r] = cluster.start_read(r);
    cluster.sim().run_until_time(cluster.sim().now() + rng.uniform(3000));
  }
  for (auto& s : wop) {
    if (s) cluster.await(*s);
  }
  for (auto& s : rop) {
    if (s) cluster.await(*s);
  }

  CheckOptions copts;
  copts.strict_validity = true;
  const auto atom = check_atomicity(cluster.recorder().ops(), copts);
  EXPECT_TRUE(atom.ok) << "seed=" << seed << ": " << atom.violation << "\n"
                       << cluster.recorder().dump();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteBackRandomTest,
                         ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace bftreg::harness
