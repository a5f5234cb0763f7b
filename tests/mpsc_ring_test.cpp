// Concurrency tests for the bounded MPSC ring (common/mpsc_ring.h) behind
// the mailbox shards. Labeled `slow`: the sanitizer CI jobs include it
// (`ctest --preset tsan`), quick local runs skip it (`ctest -LE slow`).
//
// The tests drive N producers against the single consumer and check the
// two properties the mailbox depends on: nothing is lost or duplicated,
// and each producer's items arrive in its push order (per-producer FIFO).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/mpsc_ring.h"

namespace bftreg {
namespace {

struct RingItem {
  uint32_t producer{0};
  uint32_t seq{0};
};

TEST(MpscRingTest, FifoPerProducerNoLossNoDuplication) {
  constexpr uint32_t kProducers = 4;
  constexpr uint32_t kPerProducer = 50000;
  common::MpscRing<RingItem> ring(256);  // small: forces wraps + full backoff

  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (uint32_t i = 0; i < kPerProducer; ++i) {
        RingItem item{p, i};
        while (!ring.try_push(item)) std::this_thread::yield();
      }
    });
  }

  // Single consumer: drain until every producer's full run arrived,
  // checking per-producer order as items appear.
  std::vector<uint32_t> next_seq(kProducers, 0);
  uint64_t total = 0;
  uint64_t order_violations = 0;
  while (total < uint64_t{kProducers} * kPerProducer) {
    const size_t n = ring.consume_batch(
        [&](RingItem& item) {
          if (item.seq != next_seq[item.producer]) ++order_violations;
          ++next_seq[item.producer];
          ++total;
        },
        64);
    if (n == 0) std::this_thread::yield();
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(order_violations, 0u);
  EXPECT_EQ(total, uint64_t{kProducers} * kPerProducer);
  for (uint32_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_seq[p], kPerProducer) << "producer " << p;
  }
  // Fully drained: nothing invented, nothing retained.
  EXPECT_TRUE(ring.empty());
}

TEST(MpscRingTest, FullRingRejectsWithoutClobbering) {
  common::MpscRing<RingItem> ring(4);
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_push(RingItem{0, i}));
  }
  RingItem rejected{0, 99};
  EXPECT_FALSE(ring.try_push(rejected));
  EXPECT_EQ(rejected.seq, 99u);  // full push leaves the item untouched

  uint32_t expect = 0;
  ring.consume_batch([&](RingItem& item) { EXPECT_EQ(item.seq, expect++); }, 4);
  EXPECT_EQ(expect, 4u);
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace bftreg
