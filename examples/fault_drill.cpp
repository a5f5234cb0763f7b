// fault_drill: watch BSR shrug off every adversary in the framework --
// then watch the same protocol break the moment you run it below the
// paper's resilience bound.
//
// Part 1 runs a read/write workload against n = 4f+1 servers with f
// Byzantine servers cycling through every strategy (silent, stale,
// fabricating, colluding, double-replying, malformed, turncoat) and checks
// the recorded execution for safety each time.
//
// Part 2 re-runs the Theorem 5 proof schedule at n = 4f: two partial
// writes, one lagging liar, and a reader that provably returns a stale
// value -- the tight lower bound, live.
//
//   ./build/examples/fault_drill
#include <cstdio>
#include <map>
#include <string>

#include "checker/consistency.h"
#include "harness/scenarios.h"
#include "harness/sim_cluster.h"

using namespace bftreg;

namespace {

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

bool drill(adversary::StrategyKind kind) {
  harness::ClusterOptions o;
  o.protocol = registers::ProtocolVariant::kBsr;
  o.config.n = 9;
  o.config.f = 2;
  o.num_writers = 2;
  o.num_readers = 2;
  o.seed = 1000 + static_cast<uint64_t>(kind);
  harness::SimCluster cluster(o);
  cluster.set_byzantine(1, kind);
  cluster.set_byzantine(6, kind);

  bool reads_exact = true;
  for (int i = 0; i < 10; ++i) {
    const std::string v = "gen-" + std::to_string(i);
    cluster.write(i % 2, val(v));
    const auto r = cluster.read(i % 2);
    reads_exact = reads_exact && (r.value == val(v));
  }
  checker::CheckOptions copts;
  copts.strict_validity = true;
  const auto verdict = checker::check_safety(cluster.recorder().ops(), copts);
  std::printf("  %-13s  reads-exact=%s  safety=%s\n",
              adversary::to_string(kind), reads_exact ? "yes" : "NO ",
              verdict.ok ? "OK" : "VIOLATED");
  return reads_exact && verdict.ok;
}

}  // namespace

int main() {
  std::printf("== part 1: BSR at n=9, f=2 vs every adversary =====================\n");
  bool all_ok = true;
  for (auto kind : adversary::kAllStrategyKinds) all_ok = all_ok && drill(kind);
  std::printf("  -> %s\n\n", all_ok ? "all drills passed" : "DRILL FAILURE");

  std::printf("== part 2: the Theorem 5 schedule at n = 4f (one server short) ====\n");
  harness::ClusterOptions o;
  o.protocol = registers::ProtocolVariant::kBsr;
  o.config.n = 4;
  o.config.f = 1;
  o.num_writers = 2;
  o.num_readers = 1;
  o.seed = 5;
  harness::SimCluster cluster(o);
  cluster.set_byzantine(0, std::make_unique<harness::LaggingLiar>());
  const Bytes got = harness::run_theorem5_schedule(cluster);
  std::printf("  W1(v1) complete, then W2(v2) complete, then read() -> \"%s\"\n",
              std::string(got.begin(), got.end()).c_str());

  checker::CheckOptions copts;
  const auto verdict = checker::check_safety(cluster.recorder().ops(), copts);
  std::printf("  safety checker: %s\n",
              verdict.ok ? "OK (unexpected!)" : verdict.violation.c_str());
  std::printf("  -> n >= 4f+1 is not an implementation artifact; it is the bound.\n");

  return all_ok && !verdict.ok ? 0 : 1;
}
