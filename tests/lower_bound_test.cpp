// Executable versions of the Section V lower-bound arguments.
//
// The theorems say NO algorithm can do better; an implementation can still
// make them concrete by exhibiting, for our algorithms, the exact adversary
// + schedule from each proof and watching the checker flag the violation at
// n = 4f (replication) / n = 5f (coding), while the same adversary is
// harmless at the paper's resilience (n = 4f+1 / 5f+1).
#include <gtest/gtest.h>

#include <map>

#include "checker/consistency.h"
#include "codec/mds_code.h"
#include "harness/scenarios.h"
#include "harness/sim_cluster.h"

namespace bftreg::harness {
namespace {

using checker::CheckOptions;
using checker::check_safety;
using registers::ProtocolVariant;

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(Theorem5Test, BsrViolatesSafetyAtFourF) {
  // n = 4, f = 1: the proof's scenario defeats the witness rule.
  ClusterOptions o;
  o.protocol = ProtocolVariant::kBsr;
  o.config.n = 4;
  o.config.f = 1;
  o.num_writers = 2;
  o.num_readers = 1;
  o.seed = 5;
  SimCluster cluster(o);
  cluster.set_byzantine(0, std::make_unique<harness::LaggingLiar>());

  const Bytes got = run_theorem5_schedule(cluster);
  // s0 lies v1, s1 honestly has only v1, s2 has v2: v1 collects f+1 = 2
  // witnesses and wins -- stale read.
  EXPECT_EQ(got, val("v1"));

  CheckOptions copts;
  const auto res = check_safety(cluster.recorder().ops(), copts);
  EXPECT_FALSE(res.ok) << "n = 4f must admit a safety violation (Thm. 5)";
}

TEST(Theorem5Test, SameAdversaryIsHarmlessAtFourFPlusOne) {
  ClusterOptions o;
  o.protocol = ProtocolVariant::kBsr;
  o.config.n = 5;
  o.config.f = 1;
  o.num_writers = 2;
  o.num_readers = 1;
  o.seed = 5;
  SimCluster cluster(o);
  cluster.set_byzantine(0, std::make_unique<harness::LaggingLiar>());

  const Bytes got = run_theorem5_schedule(cluster);
  EXPECT_EQ(got, val("v2")) << "at n = 4f+1 the newer value has f+1 witnesses too,"
                               " and the higher tag wins";

  CheckOptions copts;
  const auto res = check_safety(cluster.recorder().ops(), copts);
  EXPECT_TRUE(res.ok) << res.violation;
}

TEST(Lemma5Test, WitnessThresholdBelowFPlusOneAdoptsFabrications) {
  // Ablation: drop the witness threshold to 1 and a single Byzantine server
  // feeds the reader a fabricated value -- the Lemma 5 violation.
  ClusterOptions o;
  o.protocol = ProtocolVariant::kBsr;
  o.config.n = 5;
  o.config.f = 1;
  o.config.witness_threshold_override = 1;  // deliberately broken
  o.num_writers = 1;
  o.num_readers = 1;
  o.seed = 7;
  SimCluster cluster(o);
  cluster.set_byzantine(2, adversary::StrategyKind::kFabricate);

  cluster.write(0, val("real"));
  const auto r = cluster.read(0);
  // The fabricated pair has 1 witness and an enormous tag: with threshold 1
  // it wins over the real value.
  EXPECT_NE(r.value, val("real"));

  CheckOptions copts;
  copts.strict_validity = true;
  EXPECT_FALSE(check_safety(cluster.recorder().ops(), copts).ok);
}

TEST(Lemma5Test, PaperThresholdRejectsTheSameAttack) {
  ClusterOptions o;
  o.protocol = ProtocolVariant::kBsr;
  o.config.n = 5;
  o.config.f = 1;  // threshold f+1 = 2
  o.num_writers = 1;
  o.num_readers = 1;
  o.seed = 7;
  SimCluster cluster(o);
  cluster.set_byzantine(2, adversary::StrategyKind::kFabricate);
  cluster.write(0, val("real"));
  EXPECT_EQ(cluster.read(0).value, val("real"));
}

// Theorem 6 at the codec level: with n = 5f (here 5, f = 1) the proof's
// element distribution admits no consistent decode -- the reader cannot
// tell the two writes apart and Phi^{-1} must fail.
TEST(Theorem6Test, CodedDecodeImpossibleAtFiveF) {
  // [n=5, k=2] (k = n-f-2e with e = 1): W1's codeword at s0..s3, W2's at
  // s0, s2, s3, s4; reader hears s0 (Byzantine: stale element), s1 (honest
  // stale), s2, s3 (fresh). Received: 2 stale + 2 fresh of 4 -- distance 2
  // from both codewords, beyond the e = 1 budget.
  const codec::MdsCode code(5, 2);
  Bytes v1(64, 0xAA);
  Bytes v2(64, 0xBB);
  const auto e1 = code.encode(v1);
  const auto e2 = code.encode(v2);

  std::vector<std::optional<Bytes>> received(5);
  received[0] = e1[0];  // Byzantine lie: stale element
  received[1] = e1[1];  // honest but never saw W2
  received[2] = e2[2];
  received[3] = e2[3];
  // s4 slow: erasure.

  const auto decoded = code.decode(received);
  // No codeword lies within the error budget: decode must fail (and the
  // protocol falls back to v0, which violates safety after W2 completed --
  // hence 5f servers are not enough, Theorem 6).
  EXPECT_FALSE(decoded.has_value());
}

TEST(Theorem6Test, OneMoreServerMakesTheSameScheduleDecodable) {
  // n = 5f+1 = 6, k = 1: same adversarial mix, but now the reader gets
  // n-f = 5 elements of which 2 are erroneous -- within the (m-k)/2 = 2
  // budget, so the fresh value decodes.
  const auto code = codec::MdsCode::for_bcsr(6, 1);
  Bytes v1(64, 0xAA);
  Bytes v2(64, 0xBB);
  const auto e1 = code.encode(v1);
  const auto e2 = code.encode(v2);

  std::vector<std::optional<Bytes>> received(6);
  received[0] = e1[0];  // Byzantine stale lie
  received[1] = e1[1];  // honest stale
  received[2] = e2[2];
  received[3] = e2[3];
  received[4] = e2[4];
  // s5 slow: erasure.

  const auto decoded = code.decode(received);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, v2);
}

// Lemma 6/7 flavor: a BSR write that waits for more than n-f replies can
// never complete once f servers crash.
TEST(Lemma6Test, WaitingBeyondNMinusFForfeitsLiveness) {
  ClusterOptions o;
  o.protocol = ProtocolVariant::kBsr;
  o.config.n = 5;
  o.config.f = 1;
  o.num_writers = 1;
  o.num_readers = 1;
  SimCluster cluster(o);
  cluster.start();
  cluster.crash_server(4);

  // The paper's quorum completes...
  cluster.write(0, val("fine"));

  // ...but an operation demanding n responses stalls forever: drive the
  // read manually against all five and observe the simulator go idle with
  // the op still pending.
  const uint64_t rid = cluster.start_read(0);
  cluster.await(rid);  // n-f quorum: still completes
  EXPECT_TRUE(cluster.op_done(rid));

  // Direct check: with one server crashed only n-1 = 4 distinct responses
  // can ever arrive, so a 5-response wait would never be satisfied. (We
  // assert the bound rather than hanging a test on it.)
  EXPECT_EQ(cluster.options().config.quorum(), 4u);
}

}  // namespace
}  // namespace bftreg::harness
