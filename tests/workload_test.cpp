// Tests for the workload generator and the SimCluster harness itself.
#include <gtest/gtest.h>

#include "harness/sim_cluster.h"
#include "workload/workload.h"

namespace bftreg {
namespace {

TEST(WorkloadTest, GeneratesExactlyNumOps) {
  workload::WorkloadOptions o;
  o.num_ops = 123;
  workload::WorkloadGenerator gen(o);
  EXPECT_EQ(gen.all().size(), 123u);
  EXPECT_TRUE(gen.done());
}

TEST(WorkloadTest, ReadRatioIsRespected) {
  workload::WorkloadOptions o;
  o.read_ratio = 0.9;
  o.num_ops = 20000;
  workload::WorkloadGenerator gen(o);
  size_t reads = 0;
  for (const auto& op : gen.all()) reads += op.is_read ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(reads) / 20000.0, 0.9, 0.01);
}

TEST(WorkloadTest, WritesCarryValuesReadsDoNot) {
  workload::WorkloadOptions o;
  o.read_ratio = 0.5;
  o.num_ops = 100;
  o.value_size = 32;
  workload::WorkloadGenerator gen(o);
  for (const auto& op : gen.all()) {
    if (op.is_read) {
      EXPECT_TRUE(op.value.empty());
    } else {
      EXPECT_EQ(op.value.size(), 32u);
    }
  }
}

TEST(WorkloadTest, DeterministicInSeed) {
  workload::WorkloadOptions o;
  o.num_ops = 50;
  o.seed = 77;
  auto a = workload::WorkloadGenerator(o).all();
  auto b = workload::WorkloadGenerator(o).all();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].is_read, b[i].is_read);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(WorkloadTest, TaoPresetIsNearlyAllReads) {
  const auto o = workload::WorkloadOptions::facebook_tao(1000, 64);
  EXPECT_DOUBLE_EQ(o.read_ratio, 0.998);
}

TEST(WorkloadTest, MakeValueIsDeterministicAndDistinct) {
  EXPECT_EQ(workload::make_value(1, 2, 64), workload::make_value(1, 2, 64));
  EXPECT_NE(workload::make_value(1, 2, 64), workload::make_value(1, 3, 64));
  EXPECT_NE(workload::make_value(1, 2, 64), workload::make_value(2, 2, 64));
  EXPECT_EQ(workload::make_value(1, 2, 64).size(), 64u);
}

TEST(HarnessTest, RecorderCapturesOperationIntervals) {
  harness::ClusterOptions o;
  o.protocol = registers::ProtocolVariant::kBsr;
  o.config.n = 5;
  o.config.f = 1;
  harness::SimCluster cluster(o);
  cluster.write(0, Bytes{'x'});
  cluster.read(0);
  const auto& ops = cluster.recorder().ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].kind, checker::OpRecord::Kind::kWrite);
  EXPECT_TRUE(ops[0].completed);
  EXPECT_LT(ops[0].invoked_at, ops[0].responded_at);
  EXPECT_EQ(ops[1].kind, checker::OpRecord::Kind::kRead);
  EXPECT_GE(ops[1].invoked_at, ops[0].responded_at);
}

TEST(HarnessTest, DeterministicAcrossRuns) {
  auto run = [] {
    harness::ClusterOptions o;
    o.protocol = registers::ProtocolVariant::kBsr;
    o.config.n = 9;
    o.config.f = 2;
    o.seed = 99;
    harness::SimCluster cluster(o);
    cluster.set_byzantine(3, adversary::StrategyKind::kFabricate);
    std::vector<TimeNs> latencies;
    for (int i = 0; i < 5; ++i) {
      const auto w = cluster.write(0, Bytes{static_cast<uint8_t>(i)});
      latencies.push_back(w.completed_at - w.invoked_at);
      const auto r = cluster.read(0);
      latencies.push_back(r.completed_at - r.invoked_at);
    }
    return latencies;
  };
  EXPECT_EQ(run(), run());
}

TEST(ZipfianKeysTest, DeterministicAndInRange) {
  workload::ZipfianKeys a(64, 0.99, 42);
  workload::ZipfianKeys b(64, 0.99, 42);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t k = a.next();
    EXPECT_LT(k, 64u);
    EXPECT_EQ(k, b.next());  // same seed, same stream
  }
}

TEST(ZipfianKeysTest, SkewConcentratesOnHotKeys) {
  // At theta = 0.99 over 1000 keys the ten hottest keys absorb a large
  // share of draws; uniform would give them 1%.
  workload::ZipfianKeys z(1000, 0.99, 7);
  constexpr int kDraws = 20000;
  int hot = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (z.next() < 10) ++hot;
  }
  EXPECT_GT(hot, kDraws / 4);
  // ...and the tail is still reachable.
  workload::ZipfianKeys tail(1000, 0.99, 8);
  uint64_t max_seen = 0;
  for (int i = 0; i < kDraws; ++i) max_seen = std::max(max_seen, tail.next());
  EXPECT_GT(max_seen, 500u);
}

TEST(ZipfianKeysTest, ZeroThetaIsUniform) {
  workload::ZipfianKeys z(100, 0.0, 3);
  constexpr int kDraws = 50000;
  int first_decile = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (z.next() < 10) ++first_decile;
  }
  // 10% expected; allow generous sampling slack.
  EXPECT_GT(first_decile, kDraws / 20);
  EXPECT_LT(first_decile, kDraws / 5);
}

TEST(HarnessTest, MinServersMatchesPaperBounds) {
  EXPECT_EQ(registers::min_servers(registers::ProtocolVariant::kBsr, 1), 5u);
  EXPECT_EQ(registers::min_servers(registers::ProtocolVariant::kBsr, 2), 9u);
  EXPECT_EQ(registers::min_servers(registers::ProtocolVariant::kBcsr, 1), 6u);
  EXPECT_EQ(registers::min_servers(registers::ProtocolVariant::kBcsr, 3), 16u);
  EXPECT_EQ(registers::min_servers(registers::ProtocolVariant::kRb, 1), 4u);
}

TEST(HarnessTest, StorageAccountingSumsHonestServers) {
  harness::ClusterOptions o;
  o.protocol = registers::ProtocolVariant::kBsr;
  o.config.n = 5;
  o.config.f = 1;
  harness::SimCluster cluster(o);
  const size_t before = cluster.total_stored_bytes();
  cluster.write(0, Bytes(1000, 1));
  cluster.sim().run_until_idle();
  EXPECT_EQ(cluster.total_stored_bytes(), before + 5 * 1000);
}

}  // namespace
}  // namespace bftreg
