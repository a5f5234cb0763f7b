// Unit tests for the safety/regularity checkers over hand-built histories,
// plus churn executions (crash/rejoin schedules on a live cluster) judged
// by the same checkers.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "adversary/churn.h"
#include "checker/consistency.h"
#include "checker/execution.h"
#include "harness/scenarios.h"
#include "harness/sim_cluster.h"

namespace bftreg::checker {
namespace {

const Bytes kV0{};  // empty initial value
const Bytes kA{'a'};
const Bytes kB{'b'};
const Bytes kC{'c'};

Tag tag(uint64_t n, uint32_t w = 0) { return Tag{n, ProcessId::writer(w)}; }

struct HistoryBuilder {
  ExecutionRecorder rec;

  /// Complete write over [t1, t2].
  void write(TimeNs t1, TimeNs t2, Bytes v, Tag t, uint32_t client = 0) {
    const uint64_t id = rec.begin_write(ProcessId::writer(client), t1, std::move(v));
    rec.complete_write(id, t2, t);
  }
  /// Crashed (incomplete) write invoked at t1.
  void crashed_write(TimeNs t1, Bytes v, uint32_t client = 0) {
    rec.begin_write(ProcessId::writer(client), t1, std::move(v));
  }
  void read(TimeNs t1, TimeNs t2, Bytes v, Tag t, uint32_t client = 0) {
    const uint64_t id = rec.begin_read(ProcessId::reader(client), t1);
    rec.complete_read(id, t2, std::move(v), t);
  }
};

CheckOptions opts(bool strict = false) {
  CheckOptions o;
  o.initial_value = kV0;
  o.strict_validity = strict;
  return o;
}

TEST(SafetyCheckerTest, EmptyExecutionIsSafe) {
  EXPECT_TRUE(check_safety({}, opts()).ok);
}

TEST(SafetyCheckerTest, ReadAfterWriteReturningThatWriteIsSafe) {
  HistoryBuilder h;
  h.write(0, 10, kA, tag(1));
  h.read(20, 30, kA, tag(1));
  EXPECT_TRUE(check_safety(h.rec.ops(), opts()).ok);
}

TEST(SafetyCheckerTest, ReadReturningStaleValueIsUnsafe) {
  HistoryBuilder h;
  h.write(0, 10, kA, tag(1));
  h.write(20, 30, kB, tag(2));
  h.read(40, 50, kA, tag(1));  // a completed write (B) falls between A and r
  const auto res = check_safety(h.rec.ops(), opts());
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.violation.find("safety"), std::string::npos);
}

TEST(SafetyCheckerTest, InitialValueLegalOnlyBeforeAnyCompleteWrite) {
  HistoryBuilder h1;
  h1.read(0, 5, kV0, Tag::initial());
  EXPECT_TRUE(check_safety(h1.rec.ops(), opts()).ok);

  HistoryBuilder h2;
  h2.write(0, 10, kA, tag(1));
  h2.read(20, 30, kV0, Tag::initial());
  EXPECT_FALSE(check_safety(h2.rec.ops(), opts()).ok);
}

TEST(SafetyCheckerTest, ConcurrentReadMayReturnAnything) {
  HistoryBuilder h;
  h.write(0, 100, kA, tag(1));
  h.read(50, 60, kC, tag(9));  // concurrent with the write; clause (ii)
  EXPECT_TRUE(check_safety(h.rec.ops(), opts()).ok);
}

TEST(SafetyCheckerTest, StrictValidityRejectsFabricatedValues) {
  HistoryBuilder h;
  h.write(0, 100, kA, tag(1));
  h.read(50, 60, kC, tag(9));  // kC was never written
  EXPECT_FALSE(check_safety(h.rec.ops(), opts(true)).ok);
}

TEST(SafetyCheckerTest, StrictValidityAcceptsConcurrentWrittenValue) {
  HistoryBuilder h;
  h.write(0, 100, kA, tag(1));
  h.read(50, 60, kA, tag(1));
  EXPECT_TRUE(check_safety(h.rec.ops(), opts(true)).ok);
}

TEST(SafetyCheckerTest, CrashedWriteValueIsLegalForLaterRead) {
  // w(A) crashes; read may return A (Lemma 3 allows any write that began
  // before the read, and an incomplete write cannot be superseded).
  HistoryBuilder h;
  h.crashed_write(0, kA);
  h.read(100, 110, kA, tag(1));
  EXPECT_TRUE(check_safety(h.rec.ops(), opts()).ok);
}

TEST(SafetyCheckerTest, CrashedWriteDoesNotMakeV0Illegal) {
  HistoryBuilder h;
  h.crashed_write(0, kA);
  h.read(100, 110, kV0, Tag::initial());
  EXPECT_TRUE(check_safety(h.rec.ops(), opts()).ok);
}

TEST(SafetyCheckerTest, ValueFromFutureWriteIsUnsafe) {
  HistoryBuilder h;
  h.read(0, 10, kA, tag(1));       // returns A before A was ever written
  h.write(20, 30, kA, tag(1));
  EXPECT_FALSE(check_safety(h.rec.ops(), opts()).ok);
}

TEST(SafetyCheckerTest, TwoSequentialWritesReadNewestIsSafe) {
  HistoryBuilder h;
  h.write(0, 10, kA, tag(1));
  h.write(20, 30, kB, tag(2));
  h.read(40, 50, kB, tag(2));
  EXPECT_TRUE(check_safety(h.rec.ops(), opts()).ok);
}

TEST(SafetyCheckerTest, OverlappingWritesEitherValueLegalAfterBothComplete) {
  // Two concurrent writes; a later read may return either (neither falls
  // completely between the other and the read).
  HistoryBuilder h;
  h.write(0, 100, kA, tag(1, 0));
  h.write(50, 150, kB, tag(1, 1));
  h.read(200, 210, kA, tag(1, 0));
  EXPECT_TRUE(check_safety(h.rec.ops(), opts()).ok);
  HistoryBuilder h2;
  h2.write(0, 100, kA, tag(1, 0));
  h2.write(50, 150, kB, tag(1, 1));
  h2.read(200, 210, kB, tag(1, 1));
  EXPECT_TRUE(check_safety(h2.rec.ops(), opts()).ok);
}

// ------------------------------------------------------------- regularity

TEST(RegularityCheckerTest, Theorem3ScenarioIsUnsafeForRegularity) {
  // The paper's counterexample: w1(v1) completes; w2..w5 start but do not
  // complete; the read (concurrent with w2..w5) returns v0. Safe by clause
  // (ii), but NOT regular.
  HistoryBuilder h;
  h.write(0, 10, kA, tag(1, 0));          // w1 completes
  h.crashed_write(20, kB, 1);             // in-progress writes
  h.crashed_write(20, kC, 2);
  h.read(30, 40, kV0, Tag::initial());    // returns v0

  EXPECT_TRUE(check_safety(h.rec.ops(), opts()).ok);
  const auto res = check_regularity(h.rec.ops(), opts());
  EXPECT_FALSE(res.ok);
}

TEST(RegularityCheckerTest, ConcurrentWriteValueIsRegular) {
  HistoryBuilder h;
  h.write(0, 10, kA, tag(1));
  h.write(20, 100, kB, tag(2));
  h.read(50, 60, kB, tag(2));  // concurrent write's value: fine
  EXPECT_TRUE(check_regularity(h.rec.ops(), opts()).ok);
}

TEST(RegularityCheckerTest, LastCompleteWriteIsRegular) {
  HistoryBuilder h;
  h.write(0, 10, kA, tag(1));
  h.write(20, 100, kB, tag(2));
  h.read(50, 60, kA, tag(1));  // last complete preceding write: fine
  EXPECT_TRUE(check_regularity(h.rec.ops(), opts()).ok);
}

TEST(RegularityCheckerTest, SkippingACompletedWriteIsIrregular) {
  HistoryBuilder h;
  h.write(0, 10, kA, tag(1));
  h.write(20, 30, kB, tag(2));   // complete before the read
  h.write(40, 200, kC, tag(3));  // concurrent with the read
  h.read(100, 110, kA, tag(1));  // skips completed B
  EXPECT_FALSE(check_regularity(h.rec.ops(), opts()).ok);
  EXPECT_TRUE(check_safety(h.rec.ops(), opts()).ok);  // but still safe (ii)
}

TEST(RegularityCheckerTest, NewOldInversionDetected) {
  // Each read is individually legal (B is concurrent with both reads; A is
  // the last complete write), but together they order B before A -- the
  // new/old inversion Definition 2 forbids.
  HistoryBuilder h;
  h.write(0, 10, kA, tag(1));
  h.write(20, 200, kB, tag(2));   // concurrent with both reads
  h.read(50, 60, kB, tag(2), 0);
  h.read(70, 80, kA, tag(1), 0);  // same reader goes backward
  const auto res = check_regularity(h.rec.ops(), opts());
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.violation.find("inversion"), std::string::npos);
}

TEST(RegularityCheckerTest, CrossReaderInversionIsAllowed) {
  // Different readers may disagree on concurrent writes: regular, not
  // atomic, semantics.
  HistoryBuilder h;
  h.write(0, 10, kA, tag(1));
  h.write(20, 200, kB, tag(2));   // concurrent with both reads
  h.read(50, 60, kB, tag(2), 0);  // reader 0 sees the new value
  h.read(70, 80, kA, tag(1), 1);  // reader 1 still sees the old one
  EXPECT_TRUE(check_regularity(h.rec.ops(), opts()).ok);
}

TEST(RegularityCheckerTest, ConcurrentReadsMayDisagree) {
  // Two reads concurrent with each other during a write may see different
  // states; that alone is not an inversion.
  HistoryBuilder h;
  h.write(0, 10, kA, tag(1));
  h.write(20, 200, kB, tag(2));
  h.read(50, 150, kB, tag(2), 0);
  h.read(60, 160, kA, tag(1), 1);
  EXPECT_TRUE(check_regularity(h.rec.ops(), opts()).ok);
}

TEST(RecorderTest, DumpContainsOps) {
  HistoryBuilder h;
  h.write(0, 10, kA, tag(1));
  h.read(20, 30, kA, tag(1));
  const std::string d = h.rec.dump();
  EXPECT_NE(d.find("W1"), std::string::npos);
  EXPECT_NE(d.find("R2"), std::string::npos);
}

TEST(RecorderTest, TimelineShowsBarsAndIncompleteMarkers) {
  HistoryBuilder h;
  h.write(0, 50, kA, tag(1));
  h.crashed_write(60, kB, 1);
  h.read(70, 100, kA, tag(1));
  const std::string t = h.rec.dump_timeline(32);
  EXPECT_NE(t.find("time axis: [0, 100]"), std::string::npos);
  EXPECT_NE(t.find("W1 writer:0"), std::string::npos);
  EXPECT_NE(t.find('#'), std::string::npos);
  EXPECT_NE(t.find('>'), std::string::npos);  // the crashed write
  EXPECT_NE(t.find("R3 reader:0"), std::string::npos);
}

TEST(RecorderTest, TimelineOfEmptyExecution) {
  ExecutionRecorder rec;
  EXPECT_EQ(rec.dump_timeline(), "(empty execution)\n");
}

TEST(RecorderTest, IncompleteOpsHaveOpenInterval) {
  ExecutionRecorder rec;
  rec.begin_write(ProcessId::writer(0), 5, kA);
  ASSERT_EQ(rec.ops().size(), 1u);
  EXPECT_FALSE(rec.ops()[0].completed);
  EXPECT_NE(rec.dump().find("inf"), std::string::npos);
}

// --------------------------------------------- churn under the checker
//
// The churn schedules (adversary/churn.h) crash and rejoin a server at the
// adversarial moments of crash/rejoin recovery -- mid-write, mid-writeback,
// mid-round -- and the SAME Definitions 1/2 checkers that judge Byzantine
// executions judge these: recovery must not cost the register its
// consistency class.

/// Unique temp directory per test; removed recursively on destruction.
class TempWalDir {
 public:
  explicit TempWalDir(const std::string& stem) {
    path_ = (std::filesystem::temp_directory_path() /
             ("bftreg_" + stem + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++)))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempWalDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  std::string path_;
};

harness::ClusterOptions churn_options(registers::ProtocolVariant protocol,
                                      const std::string& wal_dir,
                                      uint64_t seed) {
  harness::ClusterOptions o;
  o.protocol = protocol;
  o.config.n = 5;
  o.config.f = 1;
  o.seed = seed;
  o.wal_dir = wal_dir;
  return o;
}

TEST(ChurnCheckerTest, CrashDuringWriteStaysSafeAndRegular) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TempWalDir wal("churn_write");  // fresh per run: no stale WAL replay
    harness::SimCluster cluster(
        churn_options(registers::ProtocolVariant::kBsr, wal.path(), seed));
    const auto out = harness::run_churn_schedule(
        cluster, adversary::crash_during_write_schedule(1));
    EXPECT_TRUE(out.recovered_serving);

    CheckOptions copts;
    copts.strict_validity = true;  // BSR's witness rule holds through churn
    EXPECT_TRUE(check_safety(cluster.recorder().ops(), copts).ok)
        << cluster.recorder().dump_timeline();
    EXPECT_TRUE(check_regularity(cluster.recorder().ops(), copts).ok)
        << cluster.recorder().dump_timeline();
  }
}

TEST(ChurnCheckerTest, CrashDuringReadWritebackStaysAtomic) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TempWalDir wal("churn_wb");  // fresh per run: no stale WAL replay
    harness::SimCluster cluster(
        churn_options(registers::ProtocolVariant::kBsrWriteBack, wal.path(), seed));
    const auto out = harness::run_churn_schedule(
        cluster, adversary::crash_during_read_writeback_schedule(1));
    EXPECT_TRUE(out.recovered_serving);

    CheckOptions copts;
    copts.strict_validity = true;
    // The write-back variant promises atomicity; losing and recovering the
    // write-back target mid-read must not break it.
    EXPECT_TRUE(check_atomicity(cluster.recorder().ops(), copts).ok)
        << cluster.recorder().dump_timeline();
  }
}

TEST(ChurnCheckerTest, RejoinMidRoundRefusesTrafficYetStaysRegular) {
  uint64_t total_refused = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TempWalDir wal("churn_rejoin");  // fresh per run: no stale WAL replay
    harness::SimCluster cluster(
        churn_options(registers::ProtocolVariant::kBsr, wal.path(), seed));
    const auto out = harness::run_churn_schedule(
        cluster, adversary::rejoin_mid_round_schedule(1));
    EXPECT_TRUE(out.recovered_serving);
    total_refused += out.refused_during_catch_up;

    CheckOptions copts;
    copts.strict_validity = true;
    EXPECT_TRUE(check_safety(cluster.recorder().ops(), copts).ok)
        << cluster.recorder().dump_timeline();
    EXPECT_TRUE(check_regularity(cluster.recorder().ops(), copts).ok)
        << cluster.recorder().dump_timeline();
  }
  // The rejoin lands while a write round is in flight, so live traffic
  // reaches the server during catch-up -- and every such request must show
  // up as a refusal (dropped, never answered), not as a stale reply.
  EXPECT_GT(total_refused, 0u);
}

TEST(ChurnCheckerTest, EveryVictimPositionSurvivesCrashRejoin) {
  // The catch-up layer must not care WHICH server churns: the same
  // schedule across victim positions, judged by the plain safety checker
  // without strict validity.
  for (size_t victim = 1; victim < 4; ++victim) {
    SCOPED_TRACE("victim=" + std::to_string(victim));
    TempWalDir wal("churn_victims");  // fresh per run: no stale WAL replay
    harness::SimCluster cluster(
        churn_options(registers::ProtocolVariant::kBsr, wal.path(), 11 + victim));
    const auto out = harness::run_churn_schedule(
        cluster, adversary::crash_during_write_schedule(victim));
    EXPECT_TRUE(out.recovered_serving);
    EXPECT_TRUE(check_safety(cluster.recorder().ops(), CheckOptions{}).ok)
        << cluster.recorder().dump_timeline();
  }
}

}  // namespace
}  // namespace bftreg::checker
