// OpMux unit tests: wire op-id namespacing, straggler routing, deadline
// retransmission bookkeeping, and the SystemConfig builder's centralized
// validation.
//
// The stale-response regression here is the reason op ids are namespaced
// per (client, object, protocol) in ONE place (OpMux::allocate_op_id): with
// the historical per-client monotone counters, a straggler reply to a
// completed read could alias the op id of a newer read and inject a stale
// value into its tally. With namespaced ids + exact-match routing the
// straggler parses fine but matches no in-flight op and is dropped.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/delay.h"
#include "registers/registers.h"
#include "sim/simulator.h"

namespace bftreg::registers {
namespace {

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

// --- op-id allocation ------------------------------------------------------

/// Inert operation: sends nothing, completes only on timeout. Lets the
/// tests drive OpMux's table directly.
class NullOp final : public PendingOp {
 public:
  explicit NullOp(int* sends = nullptr) : sends_(sends) {}

 protected:
  void send_request() override {
    if (sends_) ++*sends_;
  }
  void on_response(const ProcessId&, RegisterMessage) override {}
  void on_timeout() override {
    auto self = detach_self();  // completes with nothing to report
  }

 private:
  int* sends_;
};

class OpIdTest : public ::testing::Test {
 protected:
  OpIdTest()
      : sim_(sim::SimConfig::with_uniform_delay(1, 100, 500)),
        mux_(ProcessId::reader(0), SystemConfig{}, &sim_) {}

  uint64_t start(OpKind kind, uint32_t object) {
    return mux_.start(std::make_unique<NullOp>(), kind, object);
  }

  sim::Simulator sim_;
  OpMux mux_;
};

TEST_F(OpIdTest, SequencesAreNamespacedPerObjectAndKind) {
  const uint64_t read_a = start(OpKind::kBsrRead, /*object=*/1);
  const uint64_t read_b = start(OpKind::kBsrRead, /*object=*/2);
  const uint64_t hist_a = start(OpKind::kHistoryRead, /*object=*/1);
  const uint64_t write_a = start(OpKind::kWrite, /*object=*/1);

  // Distinct namespaces -> distinct upper halves; none may collide.
  EXPECT_NE(read_a >> 32, read_b >> 32);
  EXPECT_NE(read_a >> 32, hist_a >> 32);
  EXPECT_NE(read_a >> 32, write_a >> 32);
  EXPECT_NE(read_a, read_b);
  EXPECT_NE(read_a, hist_a);
  EXPECT_NE(read_a, write_a);

  // Same namespace -> same upper half, consecutive sequence numbers.
  const uint64_t read_a2 = start(OpKind::kBsrRead, /*object=*/1);
  EXPECT_EQ(read_a >> 32, read_a2 >> 32);
  EXPECT_EQ((read_a & 0xffffffffu) + 1, read_a2 & 0xffffffffu);

  // A wire id of 0 is never valid and sequences start at 1.
  EXPECT_NE(read_a, 0u);
  EXPECT_EQ(read_a & 0xffffffffu, 1u);
  EXPECT_EQ(mux_.in_flight(), 5u);
}

TEST_F(OpIdTest, IdsNeverRepeatWhileInFlight) {
  std::vector<uint64_t> ids;
  for (int i = 0; i < 256; ++i) ids.push_back(start(OpKind::kBsrRead, 7));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST_F(OpIdTest, DeadlineRetransmitsThenGivesUp) {
  int sends = 0;
  RetryPolicy policy;
  policy.timeout = 1'000;
  policy.max_retries = 2;
  policy.backoff = 2.0;
  mux_.start(std::make_unique<NullOp>(&sends), OpKind::kBsrRead, 0, policy);
  EXPECT_EQ(sends, 1);

  sim_.run_until_idle();
  // First attempt + 2 retransmissions, then the retry budget is exhausted
  // and on_timeout() completed (detached) the op.
  EXPECT_EQ(sends, 3);
  EXPECT_EQ(mux_.retransmits(), 2u);
  EXPECT_EQ(mux_.timeouts(), 1u);
  EXPECT_TRUE(mux_.idle());
  // Backoff: deadlines at 1000, then +2000, then +4000.
  EXPECT_EQ(sim_.now(), 7'000u);
}

TEST_F(OpIdTest, ZeroTimeoutNeverArmsATimer) {
  mux_.start(std::make_unique<NullOp>(), OpKind::kBsrRead, 0);  // default policy
  EXPECT_FALSE(sim_.step());  // no events at all: no timer was scheduled
  EXPECT_EQ(mux_.in_flight(), 1u);
}

// --- stale-response regression --------------------------------------------

/// 5 honest servers + one multiplexing client under scripted delays.
class StragglerTest : public ::testing::Test {
 protected:
  StragglerTest() : sim_(sim::SimConfig::with_uniform_delay(3, 1'000, 1'000)) {
    auto built = SystemConfig::builder().n(5).f(1).build_for_bsr();
    config_ = built.value();
    for (uint32_t i = 0; i < config_.n; ++i) {
      servers_.push_back(std::make_unique<RegisterServer>(
          ProcessId::server(i), config_, &sim_, Bytes{}));
      sim_.add_process(ProcessId::server(i), servers_.back().get());
    }
    client_ = std::make_unique<RegisterClient>(ProcessId::reader(0), config_,
                                               &sim_);
    sim_.add_process(client_->id(), client_.get());
    sim_.start_all();
  }

  sim::Simulator sim_;
  SystemConfig config_;
  std::vector<std::unique_ptr<RegisterServer>> servers_;
  std::unique_ptr<RegisterClient> client_;
};

TEST_F(StragglerTest, InterleavedStragglerReplyCannotPolluteALaterRead) {
  // write "v1" so the register holds a real value.
  bool done = false;
  sim_.post(client_->id(), [&] {
    client_->write(0, val("v1"), [&](const WriteResult&) { done = true; });
  });
  ASSERT_TRUE(sim_.run_until([&] { return done; }));

  // Read A with server:0's reply delayed far beyond everything below: A
  // completes on the other four replies (quorum n-f = 4) and the fifth
  // reply becomes a straggler carrying A's op id and the OLD value.
  sim_.delay_model().set_link_delay(ProcessId::server(0), client_->id(),
                                    50'000);
  ReadResult a;
  done = false;
  sim_.post(client_->id(), [&] {
    client_->read(0, [&](const ReadResult& r) {
      a = r;
      done = true;
    });
  });
  ASSERT_TRUE(sim_.run_until([&] { return done; }));
  EXPECT_EQ(a.value, val("v1"));
  ASSERT_TRUE(client_->idle());
  sim_.delay_model().clear_all_links();

  // Overwrite with "v2", completed well before the straggler lands.
  done = false;
  sim_.post(client_->id(), [&] {
    client_->write(0, val("v2"), [&](const WriteResult&) { done = true; });
  });
  ASSERT_TRUE(sim_.run_until([&] { return done; }));

  // Read B, timed so the straggler from A arrives INSIDE B's window. B and
  // A share the (client, object, protocol) namespace -- under the old
  // monotone op-id scheme this is exactly the aliasing case.
  // With the fixed 1000ns link delay, A's request reached server:0 at
  // t=5000, so its delayed reply lands at t=55'000. Issue B just before.
  ReadResult b;
  done = false;
  const TimeNs kStragglerLands = 55'000;
  const TimeNs kIssueB = kStragglerLands - 1'100;
  ASSERT_LT(sim_.now(), kIssueB);
  sim_.schedule_at(kIssueB, [&] {
    client_->read(0, [&](const ReadResult& r) {
      b = r;
      done = true;
    });
  });
  ASSERT_TRUE(sim_.run_until([&] { return done; }));
  // B completed after the straggler landed: the stale reply really did
  // arrive inside B's window, and was dropped.
  EXPECT_GT(sim_.now(), kStragglerLands);
  EXPECT_EQ(b.value, val("v2"));
  EXPECT_TRUE(b.fresh);
  EXPECT_TRUE(client_->idle());
}

TEST_F(StragglerTest, ConcurrentReadsOfDifferentObjectsDoNotCross) {
  bool w1 = false, w2 = false;
  sim_.post(client_->id(), [&] {
    client_->write(1, val("one"), [&](const WriteResult&) { w1 = true; });
    client_->write(2, val("two"), [&](const WriteResult&) { w2 = true; });
  });
  ASSERT_TRUE(sim_.run_until([&] { return w1 && w2; }));

  ReadResult r1, r2;
  bool d1 = false, d2 = false;
  sim_.post(client_->id(), [&] {
    client_->read(1, [&](const ReadResult& r) {
      r1 = r;
      d1 = true;
    });
    client_->read(2, [&](const ReadResult& r) {
      r2 = r;
      d2 = true;
    });
    EXPECT_EQ(client_->in_flight(), 2u);
  });
  ASSERT_TRUE(sim_.run_until([&] { return d1 && d2; }));
  EXPECT_EQ(r1.value, val("one"));
  EXPECT_EQ(r2.value, val("two"));
}

// --- SystemConfig::Builder -------------------------------------------------

TEST(SystemConfigBuilder, AcceptsValidBsrConfig) {
  auto c = SystemConfig::builder().n(9).f(2).build_for_bsr();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().n, 9u);
  EXPECT_EQ(c.value().f, 2u);
  EXPECT_EQ(c.value().quorum(), 7u);
}

TEST(SystemConfigBuilder, RejectsDegenerateCounts) {
  EXPECT_FALSE(SystemConfig::builder().n(0).f(0).build().ok());
  EXPECT_FALSE(SystemConfig::builder().n(3).f(3).build().ok());
}

TEST(SystemConfigBuilder, EnforcesProtocolBounds) {
  // One server below each protocol's resilience bound must be rejected,
  // the bound itself accepted -- via the same helpers the protocols use.
  EXPECT_FALSE(SystemConfig::builder().n(bsr_min_servers(2) - 1).f(2)
                   .build_for_bsr().ok());
  EXPECT_TRUE(SystemConfig::builder().n(bsr_min_servers(2)).f(2)
                  .build_for_bsr().ok());
  EXPECT_FALSE(SystemConfig::builder().n(bcsr_min_servers(2) - 1).f(2)
                   .build_for_bcsr().ok());
  EXPECT_TRUE(SystemConfig::builder().n(bcsr_min_servers(2)).f(2)
                  .build_for_bcsr().ok());
  EXPECT_FALSE(SystemConfig::builder().n(rb_min_servers(2) - 1).f(2)
                   .build_for_rb().ok());
  EXPECT_TRUE(SystemConfig::builder().n(rb_min_servers(2)).f(2)
                  .build_for_rb().ok());
}

TEST(SystemConfigBuilder, ErrorsCarryActionableDetail) {
  auto c = SystemConfig::builder().n(4).f(1).build_for_bsr();
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.error().code, Errc::kInvalidArgument);
  EXPECT_NE(c.error().detail.find("n >= 5"), std::string::npos);
}

TEST(SystemConfigBuilder, BuildForNamesTheVariantAndItsBound) {
  for (const auto& p : kProtocolNames) {
    const size_t bound = min_servers(p.variant, 2);
    EXPECT_TRUE(SystemConfig::builder().n(bound).f(2).build_for(p.variant).ok());
    auto c = SystemConfig::builder().n(bound - 1).f(2).build_for(p.variant);
    ASSERT_FALSE(c.ok()) << p.display;
    EXPECT_EQ(c.error().detail, std::string(p.display) + " needs n >= " +
                                    std::to_string(bound) + " at f=2, got n=" +
                                    std::to_string(bound - 1));
  }
}

TEST(ProtocolNames, EveryKeyParsesBackToItsVariant) {
  for (const auto& p : kProtocolNames) {
    EXPECT_EQ(protocol_by_key(p.key), p.variant) << p.key;
    EXPECT_STREQ(to_string(p.variant), p.display);
  }
  EXPECT_EQ(protocol_by_key("BSR"), std::nullopt);  // keys, not display names
  EXPECT_EQ(protocol_by_key(""), std::nullopt);
}

TEST(SystemConfigBuilder, RejectsOverridesThatWouldHang) {
  // Waiting for more identical answers than the quorum collects can never
  // complete; the builder rejects rather than letting an ablation hang.
  EXPECT_FALSE(SystemConfig::builder().n(5).f(1)
                   .witness_threshold_override(5).build_for_bsr().ok());
  EXPECT_TRUE(SystemConfig::builder().n(5).f(1)
                  .witness_threshold_override(4).build_for_bsr().ok());
  EXPECT_FALSE(SystemConfig::builder().n(5).f(1)
                   .tag_rank_override(5).build_for_bsr().ok());
}

}  // namespace
}  // namespace bftreg::registers
