// Stress suite: heavier randomized fault-schedule fuzzing than the
// per-protocol property tests. Every case draws, from its seed: the system
// size (n, f within the protocol's bound), a split of the fault budget
// between crashed and Byzantine servers, a Byzantine strategy per faulty
// server, a random concurrent schedule of reads/writes with random value
// sizes, and possibly a writer crash mid-operation. The recorded execution
// must satisfy Definition 1 (and Definition 2 for the regular variants) in
// every single case.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "checker/consistency.h"
#include "harness/sim_cluster.h"
#include "workload/workload.h"

namespace bftreg::harness {
namespace {

using checker::CheckOptions;
using checker::check_regularity;
using checker::check_safety;
using registers::ProtocolVariant;

struct StressParam {
  ProtocolVariant protocol;
  uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<StressParam>& info) {
  std::string name = to_string(info.param.protocol);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name + "_s" + std::to_string(info.param.seed);
}

class StressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(StressTest, RandomFaultScheduleKeepsConsistency) {
  const auto [protocol, seed] = GetParam();
  Rng rng(seed * 7919 + static_cast<uint64_t>(protocol));

  // System size within the protocol's resilience bound (+ slack).
  const size_t f = 1 + rng.uniform(protocol == ProtocolVariant::kBcsr ? 2 : 3);
  const size_t n = min_servers(protocol, f) + rng.uniform(3);

  const size_t writers = protocol == ProtocolVariant::kBcsr ? 1 : 2 + rng.uniform(2);
  const size_t readers = 2 + rng.uniform(2);

  ClusterOptions o;
  o.protocol = protocol;
  o.config.n = n;
  o.config.f = f;
  if (rng.bernoulli(0.3)) o.config.store_policy = registers::StorePolicy::kMaxOnly;
  // History pruning can starve the 2R read's second phase (the target tag
  // may be GC'd between phases); exercise it on the other protocols only.
  if (protocol != ProtocolVariant::kBsrTwoRound && rng.bernoulli(0.2)) {
    o.config.max_history = 2 + rng.uniform(6);
  }
  o.num_writers = writers;
  o.num_readers = readers;
  o.seed = seed;
  o.delay_lo = 200 + rng.uniform(800);
  o.delay_hi = o.delay_lo + 200 + rng.uniform(2000);
  SimCluster cluster(o);

  // Split the fault budget between crashes and Byzantine servers. The RB
  // baseline's Byzantine coverage lives at the broadcast layer
  // (bracha_test); at the register layer its adversaries stay silent.
  const size_t crashes = rng.uniform(f + 1);
  std::vector<size_t> positions(n);
  for (size_t i = 0; i < n; ++i) positions[i] = i;
  rng.shuffle(positions);
  for (size_t i = 0; i < crashes; ++i) {
    cluster.crash_server(positions[i]);
  }
  for (size_t i = crashes; i < f; ++i) {
    const auto kind =
        protocol == ProtocolVariant::kRb
            ? adversary::StrategyKind::kSilent
            : adversary::kAllStrategyKinds[rng.uniform(
                  std::size(adversary::kAllStrategyKinds))];
    cluster.set_byzantine(positions[i], kind);
  }

  // Random concurrent schedule; writers may crash mid-operation.
  std::vector<std::optional<uint64_t>> wop(writers), rop(readers);
  std::vector<bool> writer_alive(writers, true);
  uint64_t counter = 0;
  const bool allow_writer_crash =
      protocol != ProtocolVariant::kBsrTwoRound && rng.bernoulli(0.3);
  bool writer_crashed = false;

  for (int step = 0; step < 70; ++step) {
    for (size_t w = 0; w < writers; ++w) {
      if (wop[w] && cluster.op_done(*wop[w])) wop[w].reset();
    }
    for (auto& r : rop) {
      if (r && cluster.op_done(*r)) r.reset();
    }

    if (allow_writer_crash && !writer_crashed && step == 30) {
      // Crash writer 0, possibly mid-operation: its op never completes.
      cluster.crash_writer(0);
      writer_alive[0] = false;
      writer_crashed = true;
    }

    const size_t w = rng.uniform(writers);
    if (rng.bernoulli(0.35) && writer_alive[w] && !wop[w]) {
      wop[w] = cluster.start_write(
          w, workload::make_value(seed, counter++, 8 + rng.uniform(120)));
    }
    const size_t r = rng.uniform(readers);
    if (rng.bernoulli(0.5) && !rop[r]) rop[r] = cluster.start_read(r);

    cluster.sim().run_until_time(cluster.sim().now() + rng.uniform(3000));
  }
  for (size_t w = 0; w < writers; ++w) {
    if (wop[w] && writer_alive[w]) cluster.await(*wop[w]);
  }
  for (auto& r : rop) {
    if (r) cluster.await(*r);
  }

  CheckOptions copts;
  copts.reads_report_tags = registers::reads_report_tags(protocol);
  // Strict validity holds for witness-verified protocols even under these
  // adversaries; BCSR's decoder may legally emit any V-value under
  // concurrency (Def. 1(ii)), and the baseline is checked as safe only.
  copts.strict_validity =
      protocol == ProtocolVariant::kBsr || protocol == ProtocolVariant::kBsrHistory;

  const auto safe = check_safety(cluster.recorder().ops(), copts);
  EXPECT_TRUE(safe.ok) << to_string(protocol) << " seed=" << seed << ": "
                       << safe.violation << "\n" << cluster.recorder().dump();

  // Regularity needs the full-history store: kMaxOnly may skip a completed
  // write's put (it ACKs without storing when a higher concurrent tag is
  // already present), and GC may prune what the history read relies on.
  const bool regular_protocol = protocol == ProtocolVariant::kBsrHistory ||
                                protocol == ProtocolVariant::kBsrTwoRound;
  if (regular_protocol && o.config.max_history == 0 &&
      o.config.store_policy == registers::StorePolicy::kAll) {
    const auto reg = check_regularity(cluster.recorder().ops(), copts);
    EXPECT_TRUE(reg.ok) << to_string(protocol) << " seed=" << seed << ": "
                        << reg.violation << "\n" << cluster.recorder().dump();
  }
}

std::vector<StressParam> stress_params() {
  std::vector<StressParam> out;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    out.push_back({ProtocolVariant::kBsr, seed});
  }
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    out.push_back({ProtocolVariant::kBsrHistory, seed});
    out.push_back({ProtocolVariant::kBsrTwoRound, seed});
    out.push_back({ProtocolVariant::kBcsr, seed});
  }
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    out.push_back({ProtocolVariant::kRb, seed});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, StressTest, ::testing::ValuesIn(stress_params()),
                         param_name);

}  // namespace
}  // namespace bftreg::harness
