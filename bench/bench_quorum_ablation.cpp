// Ablation -- why the paper's two magic numbers are what they are:
//   (a) the reader's witness threshold f+1 (Fig. 2 line 5 / Lemma 5), and
//   (b) the writer's rank-(f+1) tag selection (Fig. 1 line 4).
//
// Each knob is swept below/at its paper value against the adversary that
// punishes it: fabricating servers for (a) (a lone liar gets adopted at
// threshold <= f), and tag-inflating servers for (b) (rank < f+1 lets f
// liars blow tags up without any real write). Expected shape: safety
// violations and unbounded tag growth below the paper values; clean runs
// at them.
#include "bench_util.h"
#include "checker/consistency.h"

using namespace bftreg;
using namespace bftreg::bench;

namespace {

struct AblationResult {
  double violations_pct{0};
  uint64_t final_tag_num{0};
};

AblationResult run_witness_ablation(size_t threshold, size_t trials) {
  size_t violations = 0;
  for (uint64_t seed = 1; seed <= trials; ++seed) {
    harness::ClusterOptions o =
        make_options(ProtocolVariant::kBsr, 5, 1, seed, 500, 1500);
    o.config.witness_threshold_override = threshold;
    o.num_writers = 1;
    o.num_readers = 1;
    harness::SimCluster cluster(o);
    Rng rng(seed);
    cluster.set_byzantine(rng.uniform(5), adversary::StrategyKind::kFabricate);
    for (int i = 0; i < 5; ++i) {
      cluster.write(0, workload::make_value(seed, i, 24));
      cluster.read(0);
    }
    checker::CheckOptions copts;
    copts.strict_validity = true;
    if (!checker::check_safety(cluster.recorder().ops(), copts).ok) ++violations;
  }
  AblationResult out;
  out.violations_pct = 100.0 * static_cast<double>(violations) / trials;
  return out;
}

AblationResult run_tag_rank_ablation(size_t rank) {
  harness::ClusterOptions o =
      make_options(ProtocolVariant::kBsr, 5, 1, 3, 500, 1500);
  o.config.tag_rank_override = rank;
  o.num_writers = 1;
  o.num_readers = 1;
  harness::SimCluster cluster(o);
  cluster.set_byzantine(2, adversary::StrategyKind::kFabricate);  // tags ~1e9
  AblationResult out;
  for (int i = 0; i < 10; ++i) {
    const auto w = cluster.write(0, workload::make_value(3, i, 24));
    out.final_tag_num = w.tag.num;
  }
  return out;
}

}  // namespace

int main() {
  std::printf("ablation: witness threshold (Lemma 5) and tag rank (Fig. 1 l.4)\n\n");

  std::printf("(a) reader witness threshold, n=5, f=1, one fabricating server\n");
  TextTable ta({"threshold", "paper value?", "safety violations (50 seeds)"});
  for (size_t th = 1; th <= 3; ++th) {
    const auto res = run_witness_ablation(th, 50);
    ta.add_row({std::to_string(th), th == 2 ? "f+1 = 2 <- paper" : "",
                TextTable::fmt(res.violations_pct, 0) + "%"});
  }
  std::printf("%s\n", ta.render().c_str());

  std::printf("(b) writer tag-selection rank, 10 writes, one tag-inflating server\n");
  TextTable tb({"rank", "paper value?", "tag.num after 10 writes"});
  for (size_t rank = 1; rank <= 3; ++rank) {
    const auto res = run_tag_rank_ablation(rank);
    tb.add_row({std::to_string(rank), rank == 2 ? "f+1 = 2 <- paper" : "",
                std::to_string(res.final_tag_num)});
  }
  std::printf("%s\n", tb.render().c_str());
  std::printf(
      "shape check: threshold f adopts fabricated values (Lemma 5 violated);\n"
      "rank 1 lets a single liar inflate tags past 10^9 (unbounded growth and\n"
      "a tag-exhaustion vector), while rank f+1 advances exactly +1 per write.\n");
  return 0;
}
