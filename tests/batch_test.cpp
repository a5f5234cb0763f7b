// Tests for the batched multi-get extension: one one-shot round reading
// many shared variables, each with the full f+1 witness guarantee.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "adversary/byzantine_server.h"
#include "registers/registers.h"
#include "sim/simulator.h"

namespace bftreg::registers {
namespace {

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

class BatchFixture : public ::testing::Test {
 protected:
  static constexpr size_t kN = 5;

  BatchFixture() : sim_(sim::SimConfig::with_uniform_delay(11, 100, 500)) {
    config_.n = kN;
    config_.f = 1;
    for (uint32_t i = 0; i < kN; ++i) {
      servers_.push_back(std::make_unique<RegisterServer>(ProcessId::server(i),
                                                          config_, &sim_, Bytes{}));
      sim_.add_process(ProcessId::server(i), servers_.back().get());
    }
    reader_ = std::make_unique<RegisterClient>(ProcessId::reader(0), config_, &sim_);
    sim_.add_process(ProcessId::reader(0), reader_.get());
  }

  void make_byzantine(uint32_t index, adversary::StrategyKind kind) {
    adversary::ServerContext ctx;
    ctx.self = ProcessId::server(index);
    ctx.config = config_;
    ctx.transport = &sim_;
    ctx.rng = Rng(777);
    byzantine_ = std::make_unique<adversary::ByzantineServer>(
        std::move(ctx), adversary::make_strategy(kind, 777));
    sim_.add_process(ProcessId::server(index), byzantine_.get());
  }

  void write(uint32_t object, uint64_t num, Bytes v) {
    auto writer = std::make_unique<RegisterClient>(
        ProcessId::writer(next_writer_), config_, &sim_);
    sim_.add_process(ProcessId::writer(next_writer_), writer.get());
    ++next_writer_;
    bool done = false;
    writer->write(object, std::move(v), [&](const WriteResult& w) {
      EXPECT_EQ(w.tag.num, num);
      done = true;
    });
    EXPECT_TRUE(sim_.run_until([&] { return done; }));
    writers_.push_back(std::move(writer));
  }

  BatchReadResult read_batch(std::vector<uint32_t> objects) {
    BatchReadResult out;
    bool done = false;
    reader_->read_batch(objects, [&](const BatchReadResult& r) {
      out = r;
      done = true;
    });
    EXPECT_TRUE(sim_.run_until([&] { return done; }));
    return out;
  }

  sim::Simulator sim_;
  SystemConfig config_;
  std::vector<std::unique_ptr<RegisterServer>> servers_;
  std::vector<std::unique_ptr<RegisterClient>> writers_;
  std::unique_ptr<adversary::ByzantineServer> byzantine_;
  std::unique_ptr<RegisterClient> reader_;
  uint32_t next_writer_{0};
};

TEST_F(BatchFixture, MultiGetReturnsPerObjectValues) {
  write(1, 1, val("one"));
  write(2, 1, val("two"));
  write(3, 1, val("three"));
  const auto batch = read_batch({1, 2, 3, 4});
  ASSERT_EQ(batch.results.size(), 4u);
  EXPECT_EQ(batch.results[0].value, val("one"));
  EXPECT_EQ(batch.results[1].value, val("two"));
  EXPECT_EQ(batch.results[2].value, val("three"));
  EXPECT_EQ(batch.results[3].value, Bytes{});  // untouched object: v0
  EXPECT_EQ(batch.rounds, 1);
}

TEST_F(BatchFixture, BatchIsOneRoundOfMessages) {
  write(1, 1, val("x"));
  sim_.run_until_idle();
  const auto before = sim_.metrics().snapshot().messages_sent;
  read_batch({1, 2, 3, 4, 5, 6, 7, 8});
  sim_.run_until_idle();
  const auto after = sim_.metrics().snapshot().messages_sent;
  // n requests + n responses, independent of the batch width.
  EXPECT_EQ(after - before, 2 * kN);
}

TEST_F(BatchFixture, WitnessRuleHoldsPerObjectUnderByzantine) {
  make_byzantine(2, adversary::StrategyKind::kFabricate);
  write(1, 1, val("real-1"));
  write(2, 1, val("real-2"));
  const auto batch = read_batch({1, 2});
  EXPECT_EQ(batch.results[0].value, val("real-1"));
  EXPECT_EQ(batch.results[1].value, val("real-2"));
}

TEST_F(BatchFixture, LocalStateIsMonotonePerObject) {
  write(1, 1, val("a"));
  auto b1 = read_batch({1});
  EXPECT_EQ(b1.results[0].tag.num, 1u);
  write(1, 2, val("b"));
  auto b2 = read_batch({1});
  EXPECT_EQ(b2.results[0].tag.num, 2u);
  EXPECT_GE(b2.results[0].tag, b1.results[0].tag);
}

TEST_F(BatchFixture, RepeatedObjectsInOneBatchAreAnswered) {
  write(7, 1, val("dup"));
  const auto batch = read_batch({7, 7});
  ASSERT_EQ(batch.results.size(), 2u);
  EXPECT_EQ(batch.results[0].value, val("dup"));
  EXPECT_EQ(batch.results[1].value, val("dup"));
}

TEST_F(BatchFixture, TruncatedBatchResponsesAreIgnored) {
  // A Byzantine server answering with a mismatched object list must not be
  // counted toward the quorum (its per-index vouching is meaningless).
  // With one server silent-by-mismatch the batch still completes off the
  // other n-f honest servers.
  make_byzantine(4, adversary::StrategyKind::kMalformed);
  write(1, 1, val("ok"));
  const auto batch = read_batch({1});
  EXPECT_EQ(batch.results[0].value, val("ok"));
}

}  // namespace
}  // namespace bftreg::registers
