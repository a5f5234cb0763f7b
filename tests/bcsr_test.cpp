// Integration and property tests for BCSR (Section IV): the SWMR
// erasure-coded safe register with one-shot reads, n >= 5f+1.
#include <gtest/gtest.h>

#include <string>

#include "checker/consistency.h"
#include "harness/sim_cluster.h"
#include "workload/workload.h"

namespace bftreg::harness {
namespace {

using adversary::StrategyKind;
using checker::CheckOptions;
using checker::check_safety;
using registers::ProtocolVariant;

ClusterOptions bcsr_options(size_t n, size_t f, uint64_t seed = 1,
                            size_t readers = 2) {
  ClusterOptions o;
  o.protocol = ProtocolVariant::kBcsr;
  o.config.n = n;
  o.config.f = f;
  o.config.initial_value = Bytes{};
  o.num_writers = 1;  // SWMR
  o.num_readers = readers;
  o.seed = seed;
  return o;
}

CheckOptions bcsr_check() {
  CheckOptions c;
  c.reads_report_tags = registers::reads_report_tags(ProtocolVariant::kBcsr);
  return c;
}

TEST(BcsrTest, ReadBeforeAnyWriteReturnsInitialValue) {
  SimCluster cluster(bcsr_options(6, 1));
  const auto r = cluster.read(0);
  EXPECT_EQ(r.value, Bytes{});
  EXPECT_TRUE(r.fresh);  // v0's codeword decodes fine
}

TEST(BcsrTest, ReadAfterWriteDecodesWrittenValue) {
  SimCluster cluster(bcsr_options(6, 1));
  const Bytes payload = workload::make_value(1, 0, 300);
  cluster.write(0, payload);
  const auto r = cluster.read(0);
  EXPECT_EQ(r.value, payload);
  EXPECT_EQ(r.rounds, 1);
}

TEST(BcsrTest, ServersStoreElementsNotFullValues) {
  // The paper's storage argument (Section I-C): each server holds ~1/k of
  // the value, so total storage is ~n/k, not n.
  const size_t n = 11;
  const size_t f = 1;  // k = n - 5f = 6
  SimCluster cluster(bcsr_options(n, f));
  const Bytes payload = workload::make_value(2, 0, 6000);
  cluster.write(0, payload);
  cluster.sim().run_until_idle();

  const size_t k = n - 5 * f;
  for (size_t i = 0; i < n; ++i) {
    auto* srv = cluster.server(i);
    ASSERT_NE(srv, nullptr);
    const size_t element = srv->max_value().size();
    EXPECT_LT(element, payload.size() / k + 64)
        << "server " << i << " stores a near-1/k share";
    EXPECT_GT(element, payload.size() / k - 64);
  }
}

TEST(BcsrTest, SequentialWritesAlwaysReadLatest) {
  SimCluster cluster(bcsr_options(11, 2, 5));
  for (int i = 0; i < 6; ++i) {
    const Bytes payload = workload::make_value(5, i, 100 + i * 37);
    cluster.write(0, payload);
    EXPECT_EQ(cluster.read(i % 2).value, payload) << "write " << i;
  }
  const auto res = check_safety(cluster.recorder().ops(), bcsr_check());
  EXPECT_TRUE(res.ok) << res.violation;
}

TEST(BcsrTest, LivenessWithFCrashedServers) {
  SimCluster cluster(bcsr_options(6, 1));
  cluster.start();
  cluster.crash_server(2);
  const Bytes payload = workload::make_value(3, 0, 128);
  cluster.write(0, payload);
  EXPECT_EQ(cluster.read(0).value, payload);
}

TEST(BcsrTest, EmptyAndTinyValuesRoundTrip) {
  SimCluster cluster(bcsr_options(6, 1));
  cluster.write(0, Bytes{});
  EXPECT_EQ(cluster.read(0).value, Bytes{});
  cluster.write(0, Bytes{0x42});
  EXPECT_EQ(cluster.read(0).value, Bytes{0x42});
}

TEST(BcsrTest, LargeValueRoundTrip) {
  SimCluster cluster(bcsr_options(11, 2));
  const Bytes payload = workload::make_value(7, 0, 100'000);
  cluster.write(0, payload);
  EXPECT_EQ(cluster.read(0).value, payload);
}

struct BcsrSweepParam {
  StrategyKind kind;
  size_t n;
  size_t f;
};

class BcsrAdversarySweep : public ::testing::TestWithParam<BcsrSweepParam> {};

TEST_P(BcsrAdversarySweep, SequentialWorkloadSafeUnderFByzantine) {
  const auto [kind, n, f] = GetParam();
  SimCluster cluster(bcsr_options(n, f, 101 + n + f));
  for (size_t i = 0; i < f; ++i) {
    cluster.set_byzantine((i * 3 + 2) % n, kind);
  }
  for (int i = 0; i < 8; ++i) {
    const Bytes payload = workload::make_value(n, i, 64 + i * 11);
    cluster.write(0, payload);
    EXPECT_EQ(cluster.read(i % 2).value, payload)
        << to_string(kind) << " n=" << n << " f=" << f << " round " << i;
  }
  const auto res = check_safety(cluster.recorder().ops(), bcsr_check());
  EXPECT_TRUE(res.ok) << res.violation;
}

std::vector<BcsrSweepParam> bcsr_sweep_params() {
  std::vector<BcsrSweepParam> out;
  for (StrategyKind kind : adversary::kAllStrategyKinds) {
    out.push_back({kind, 6, 1});
    out.push_back({kind, 11, 2});
    out.push_back({kind, 16, 3});
    out.push_back({kind, 18, 3});  // n > 5f+1: slack beyond the bound
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, BcsrAdversarySweep,
                         ::testing::ValuesIn(bcsr_sweep_params()),
                         [](const auto& info) {
                           std::string name = adversary::to_string(info.param.kind);
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name + "_n" + std::to_string(info.param.n);
                         });

// Lemma 4's exact adversarial mix, end to end: f Byzantine garbage + f
// stale-honest servers, reader still decodes the latest value.
TEST(BcsrTest, Lemma4WorstCaseMix) {
  const size_t n = 11;
  const size_t f = 2;
  SimCluster cluster(bcsr_options(n, f, 77));
  cluster.set_byzantine(0, StrategyKind::kFabricate);
  cluster.set_byzantine(1, StrategyKind::kFabricate);

  // Make two honest servers permanently slow for PUT-DATA only, so their
  // elements are stale at read time (they are the paper's "erroneous by
  // staleness" elements).
  cluster.start();
  auto& delay = cluster.sim().delay_model();
  delay.set_hook([](const net::Envelope& env) -> std::optional<TimeNs> {
    if (!env.to.is_server()) return std::nullopt;
    if (env.to.index != 2 && env.to.index != 3) return std::nullopt;
    auto msg = registers::RegisterMessage::parse(env.payload);
    if (msg && msg->type == registers::MsgType::kPutData) {
      return TimeNs{100'000'000};  // effectively never before the read
    }
    return std::nullopt;
  });

  const Bytes v1 = workload::make_value(9, 1, 256);
  cluster.write(0, v1);  // completes: n-f acks don't need the slow two
  const Bytes v2 = workload::make_value(9, 2, 256);
  cluster.write(0, v2);
  EXPECT_EQ(cluster.read(0).value, v2);
}

class BcsrRandomScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BcsrRandomScheduleTest, RandomExecutionIsSafe) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 31 + 7);
  const size_t f = 1 + rng.uniform(2);
  const size_t n = 5 * f + 1 + rng.uniform(3);
  SimCluster cluster(bcsr_options(n, f, seed, /*readers=*/2));
  for (size_t i = 0; i < f; ++i) {
    const auto kind = adversary::kAllStrategyKinds[rng.uniform(
        std::size(adversary::kAllStrategyKinds))];
    cluster.set_byzantine(rng.uniform(n), kind);
  }

  // SWMR: one writer; reads from two readers interleave with the writes.
  // (Plain flag + id instead of std::optional: GCC 12's -Wmaybe-uninitialized
  // false-positives on the optional in this loop shape.)
  uint64_t wop_id = 0;
  bool wop_active = false;
  std::vector<std::optional<uint64_t>> rop(2);
  uint64_t counter = 0;
  for (int step = 0; step < 60; ++step) {
    if (wop_active && cluster.op_done(wop_id)) wop_active = false;
    for (auto& r : rop) {
      if (r && cluster.op_done(*r)) r.reset();
    }
    if (!wop_active && rng.bernoulli(0.35)) {
      wop_id = cluster.start_write(0, workload::make_value(seed, counter++, 48));
      wop_active = true;
    }
    const size_t rc = rng.uniform(2);
    if (!rop[rc] && rng.bernoulli(0.6)) rop[rc] = cluster.start_read(rc);
    cluster.sim().run_until_time(cluster.sim().now() + rng.uniform(3000));
  }
  if (wop_active) cluster.await(wop_id);
  for (auto& r : rop) {
    if (r) cluster.await(*r);
  }

  const auto res = check_safety(cluster.recorder().ops(), bcsr_check());
  EXPECT_TRUE(res.ok) << "seed=" << seed << ": " << res.violation << "\n"
                      << cluster.recorder().dump();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BcsrRandomScheduleTest,
                         ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace bftreg::harness
