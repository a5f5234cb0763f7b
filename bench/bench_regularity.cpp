// E6 -- regularity: what plain BSR loses and what the Section III-C fixes
// recover (Theorem 3 + the two extensions).
//
// Part 1 replays the exact Theorem 3 execution (n = 5, f = 1, one complete
// write then four one-server writes) on BSR and both regular variants.
// Part 2 runs randomized concurrent executions and reports the fraction
// that satisfy regularity, plus the bandwidth each variant paid.
// Expected shape: BSR returns v0 and fails regularity in part 1 and below
// 100% in part 2; both variants are 100% regular; history pays bandwidth,
// 2R pays a round.
#include "bench_util.h"
#include "checker/consistency.h"
#include "harness/scenarios.h"

using namespace bftreg;
using namespace bftreg::bench;

namespace {

struct RegResult {
  double regular_pct{0};
  double safe_pct{0};
  double atomic_pct{0};
  double read_bytes_avg{0};
  double read_rounds{1};
};

RegResult random_regularity(ProtocolVariant protocol, size_t trials) {
  size_t regular = 0;
  size_t safe = 0;
  size_t atomic = 0;
  double bytes_sum = 0;
  double rounds_sum = 0;
  size_t reads = 0;
  for (uint64_t seed = 1; seed <= trials; ++seed) {
    harness::ClusterOptions o = make_options(protocol, 5, 1, seed, 500, 1500);
    o.num_writers = 3;
    o.num_readers = 2;
    harness::SimCluster cluster(o);
    Rng rng(seed * 13);
    cluster.set_byzantine(rng.uniform(5),
                          adversary::kAllStrategyKinds[rng.uniform(
                              std::size(adversary::kAllStrategyKinds))]);

    std::vector<std::optional<uint64_t>> wop(3), rop(2);
    std::vector<uint64_t> read_ids;
    uint64_t counter = 0;
    for (int step = 0; step < 50; ++step) {
      for (auto& s : wop) {
        if (s && cluster.op_done(*s)) s.reset();
      }
      for (auto& s : rop) {
        if (s && cluster.op_done(*s)) s.reset();
      }
      if (rng.bernoulli(0.4)) {
        const size_t c = rng.uniform(3);
        if (!wop[c]) {
          wop[c] = cluster.start_write(c, workload::make_value(seed, counter++, 32));
        }
      } else {
        const size_t c = rng.uniform(2);
        if (!rop[c]) {
          rop[c] = cluster.start_read(c);
          read_ids.push_back(*rop[c]);
        }
      }
      cluster.sim().run_until_time(cluster.sim().now() + rng.uniform(3000));
    }
    for (auto& s : wop) {
      if (s) cluster.await(*s);
    }
    for (auto& s : rop) {
      if (s) cluster.await(*s);
    }
    for (uint64_t id : read_ids) {
      rounds_sum += cluster.read_result(id).rounds;
      ++reads;
    }
    bytes_sum += static_cast<double>(cluster.sim().metrics().snapshot().bytes_sent);

    checker::CheckOptions copts;
    copts.reads_report_tags = registers::reads_report_tags(protocol);
    if (checker::check_safety(cluster.recorder().ops(), copts).ok) ++safe;
    if (checker::check_regularity(cluster.recorder().ops(), copts).ok) ++regular;
    if (checker::check_atomicity(cluster.recorder().ops(), copts).ok) ++atomic;
  }
  RegResult out;
  out.regular_pct = 100.0 * static_cast<double>(regular) / trials;
  out.safe_pct = 100.0 * static_cast<double>(safe) / trials;
  out.atomic_pct = 100.0 * static_cast<double>(atomic) / trials;
  out.read_bytes_avg = bytes_sum / static_cast<double>(trials);
  out.read_rounds = reads > 0 ? rounds_sum / static_cast<double>(reads) : 0;
  return out;
}

}  // namespace

int main() {
  std::printf("E6: regularity -- Theorem 3 and the Section III-C fixes\n\n");

  std::printf("part 1: the exact Theorem 3 schedule (n=5, f=1)\n");
  TextTable t1({"protocol", "read returned", "safe (Def.1)", "regular (Def.2)"});
  for (auto protocol : {ProtocolVariant::kBsr, ProtocolVariant::kBsrHistory,
                        ProtocolVariant::kBsrTwoRound}) {
    harness::ClusterOptions o;
    o.protocol = protocol;
    o.config.n = 5;
    o.config.f = 1;
    o.num_writers = 5;
    o.num_readers = 1;
    o.seed = 42;
    harness::SimCluster cluster(o);
    const auto r = harness::run_theorem3_schedule(cluster);
    checker::CheckOptions copts;
    const bool safe = checker::check_safety(cluster.recorder().ops(), copts).ok;
    const bool regular =
        checker::check_regularity(cluster.recorder().ops(), copts).ok;
    t1.add_row({to_string(protocol),
                r.value.empty() ? "v0  <-- slid back!"
                                : std::string(r.value.begin(), r.value.end()),
                safe ? "yes" : "NO", regular ? "yes" : "NO"});
  }
  std::printf("%s\n", t1.render().c_str());

  std::printf("part 2: randomized concurrent executions (40 seeds each)\n");
  TextTable t2({"protocol", "safe %", "regular %", "atomic %", "avg read rounds",
                "avg exec bytes"});
  for (auto protocol : {ProtocolVariant::kBsr, ProtocolVariant::kBsrHistory,
                        ProtocolVariant::kBsrTwoRound,
                        ProtocolVariant::kBsrWriteBack}) {
    const auto res = random_regularity(protocol, 40);
    t2.add_row({to_string(protocol), TextTable::fmt(res.safe_pct, 0),
                TextTable::fmt(res.regular_pct, 0),
                TextTable::fmt(res.atomic_pct, 0),
                TextTable::fmt(res.read_rounds, 2),
                TextTable::fmt(res.read_bytes_avg, 0)});
  }
  std::printf("%s\n", t2.render().c_str());
  std::printf(
      "shape check: BSR is always safe but not always regular (Thm. 3);\n"
      "history reads buy regularity with bandwidth (larger exec bytes),\n"
      "two-round reads buy it with an extra round (2.0 vs 1.0); only the\n"
      "write-back extension GUARANTEES atomicity -- also at 2 rounds, the\n"
      "floor set by the semi-fast impossibility result [13]. (Random\n"
      "schedules rarely hit the cross-reader inversions that separate\n"
      "regular from atomic; the scripted schedule in extensions_test.cpp's\n"
      "AtomicityTest shows BSR failing atomicity deterministically while\n"
      "writeback_test.cpp shows BSR-WB surviving the same schedule.)\n");
  return 0;
}
