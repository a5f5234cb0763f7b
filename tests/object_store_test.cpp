// Differential and concurrency tests for the compact object store
// (src/registers/object_store.h): the flat-hash + slab + log-ring layout is
// checked against the std::map reference model it replaced, under the same
// policy/GC semantics the servers rely on (Fig. 3 line 5, max_history GC),
// plus the paper-shaped histories -- Lemma 4's f garbage tags above every
// honest one, and Theorem 3's max_history=1 semi-fast schedule.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "registers/object_store.h"
#include "workload/workload.h"

namespace bftreg::registers {
namespace {

Bytes value_of(uint64_t seed, uint64_t i, size_t size) {
  return workload::make_value(seed, i, size);
}

/// The layout this store replaced, reduced to its semantics: one Tag-keyed
/// sorted map per object, seeded {t0, initial}, same policy + GC.
class ReferenceModel {
 public:
  ReferenceModel(Bytes initial, StorePolicy policy, size_t max_history)
      : initial_(std::move(initial)),
        policy_(policy),
        max_history_(max_history) {}

  /// Mirrors CompactObjectStore::apply; returns (added, bytes_delta).
  std::pair<bool, long long> apply(uint32_t object, const Tag& tag,
                                   const Bytes& value) {
    long long delta = 0;
    auto [it, inserted] = objects_.try_emplace(object);
    auto& log = it->second;
    if (inserted) {
      log.emplace(Tag::initial(), initial_);
      delta += static_cast<long long>(initial_.size());
    }
    bool added = false;
    switch (policy_) {
      case StorePolicy::kMaxOnly:
        if (log.rbegin()->first < tag) {
          log.emplace(tag, value);
          added = true;
        }
        break;
      case StorePolicy::kAll:
        added = log.emplace(tag, value).second;
        break;
    }
    if (added) {
      delta += static_cast<long long>(value.size());
      if (max_history_ > 0) {
        while (log.size() > max_history_) {
          delta -= static_cast<long long>(log.begin()->second.size());
          log.erase(log.begin());
        }
      }
    }
    return {added, delta};
  }

  const std::map<Tag, Bytes>* find(uint32_t object) const {
    const auto it = objects_.find(object);
    return it == objects_.end() ? nullptr : &it->second;
  }
  const std::map<uint32_t, std::map<Tag, Bytes>>& objects() const {
    return objects_;
  }

 private:
  Bytes initial_;
  StorePolicy policy_;
  size_t max_history_;
  std::map<uint32_t, std::map<Tag, Bytes>> objects_;
};

/// Every record's log must match the reference entry for entry, and its
/// newest pair -- what QUERY-TAG and QUERY-DATA answer -- must match the
/// reference maximum.
void expect_equal(const CompactObjectStore& store, const ReferenceModel& ref) {
  ASSERT_EQ(store.size(), ref.objects().size());
  for (const auto& [object, log] : ref.objects()) {
    const auto* rec = store.find(object);
    ASSERT_NE(rec, nullptr) << "object " << object;
    ASSERT_EQ(rec->log.size(), log.size()) << "object " << object;
    auto it = log.begin();
    for (const LogEntry& e : rec->log) {
      EXPECT_EQ(e.tag, it->first) << "object " << object;
      const BytesView v = e.val.view();
      EXPECT_EQ(Bytes(v.begin(), v.end()), it->second) << "object " << object;
      ++it;
    }
    const LogEntry& newest = rec->log.newest();
    const BytesView newest_value = newest.val.view();
    EXPECT_EQ(newest.tag, log.rbegin()->first);
    EXPECT_EQ(Bytes(newest_value.begin(), newest_value.end()),
              log.rbegin()->second);
  }
}

struct DifferentialCase {
  StorePolicy policy;
  size_t max_history;
};

class ObjectStoreDifferential
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(ObjectStoreDifferential, RandomizedInsertGcLookupMatchesReference) {
  const auto [policy, max_history] = GetParam();
  const Bytes initial = value_of(7, 0, 16);
  CompactObjectStore store(initial, policy, max_history);
  ReferenceModel ref(initial, policy, max_history);
  long long stored = static_cast<long long>(0);
  Rng rng(0xd1ff + max_history * 31 + static_cast<uint64_t>(policy));

  // Value sizes straddle every representation boundary: empty, inline
  // (<= 16), slab small, slab large.
  const size_t kSizes[] = {0, 1, 8, 16, 17, 33, 40, 200, 2048};
  for (int round = 0; round < 4000; ++round) {
    const auto object = static_cast<uint32_t>(rng.uniform(160));
    const Tag tag{rng.uniform(24),
                  ProcessId::writer(static_cast<uint32_t>(rng.uniform(3)))};
    const Bytes value =
        value_of(11, rng.next_u64() % 97,
                 kSizes[rng.uniform(std::size(kSizes))]);

    const auto res = store.apply(object, tag, BytesView(value));
    stored += res.bytes_delta;
    const auto [ref_added, ref_delta] = ref.apply(object, tag, value);
    ASSERT_EQ(res.added, ref_added) << "round " << round;
    ASSERT_EQ(res.bytes_delta, ref_delta) << "round " << round;

    // Random negative lookups must not materialize state.
    EXPECT_EQ(store.find(static_cast<uint32_t>(1000 + rng.uniform(100))),
              nullptr);
    if (round % 400 == 399) {
      expect_equal(store, ref);
      EXPECT_EQ(static_cast<long long>(store.walk_value_bytes()), stored);
    }
  }
  expect_equal(store, ref);
  // The incremental deltas must reconcile with a full walk -- the check the
  // servers' NDEBUG-gated stored_bytes() audit performs.
  EXPECT_EQ(static_cast<long long>(store.walk_value_bytes()), stored);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndBudgets, ObjectStoreDifferential,
    ::testing::Values(DifferentialCase{StorePolicy::kAll, 0},
                      DifferentialCase{StorePolicy::kAll, 1},
                      DifferentialCase{StorePolicy::kAll, 3},
                      DifferentialCase{StorePolicy::kMaxOnly, 0},
                      DifferentialCase{StorePolicy::kMaxOnly, 1},
                      DifferentialCase{StorePolicy::kMaxOnly, 4}));

// Lemma 4's adversarial history: f Byzantine servers can contribute at most
// f garbage tags above every honest one. The store must keep them (it
// cannot authenticate), keep them SORTED above the honest prefix, and GC
// must evict oldest-first so the garbage does not displace the newest
// honest entry ordering.
TEST(ObjectStoreTest, LemmaFourGarbageTagsStaySortedAndGcOldestFirst) {
  const Bytes initial = value_of(1, 0, 8);
  CompactObjectStore store(initial, StorePolicy::kAll, 6);
  ReferenceModel ref(initial, StorePolicy::kAll, 6);

  // Honest history: tags 1..8 from writer 0 (some arriving out of order).
  const uint64_t order[] = {2, 1, 4, 3, 8, 6, 5, 7};
  for (const uint64_t num : order) {
    const Bytes v = value_of(2, num, 24);
    const auto res =
        store.apply(9, Tag{num, ProcessId::writer(0)}, BytesView(v));
    EXPECT_TRUE(res.added);
    ref.apply(9, Tag{num, ProcessId::writer(0)}, v);
  }
  // f = 2 garbage tags far above anything honest.
  for (const uint64_t num : {1u << 20, 1u << 21}) {
    const Bytes v = value_of(3, num, 40);
    const auto res =
        store.apply(9, Tag{num, ProcessId::writer(2)}, BytesView(v));
    EXPECT_TRUE(res.added);
    ref.apply(9, Tag{num, ProcessId::writer(2)}, v);
  }
  expect_equal(store, ref);

  const auto* rec = store.find(9);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->log.size(), 6u);
  EXPECT_EQ(rec->log.newest().tag.num, 1u << 21);
  // A reader that consults history below the garbage still finds the
  // honest tags the GC spared.
  EXPECT_NE(rec->log.find(Tag{7, ProcessId::writer(0)}), nullptr);
  EXPECT_EQ(rec->log.find(Tag{1, ProcessId::writer(0)}), nullptr);  // GC'd
}

// Theorem 3's semi-fast regime needs only the newest pair per object:
// max_history = 1 must behave as an atomic register cell -- every accepted
// write replaces the cell, storage stays O(1), and the slab recycles the
// evicted value blocks instead of leaking them.
TEST(ObjectStoreTest, MaxHistoryOneKeepsExactlyTheNewestPair) {
  const Bytes initial = value_of(4, 0, 8);
  CompactObjectStore store(initial, StorePolicy::kMaxOnly, 1);
  long long stored = 0;

  for (uint64_t num = 1; num <= 200; ++num) {
    const size_t size = 20 + (num % 5) * 30;  // all past the inline cap
    const Bytes v = value_of(5, num, size);
    const auto res =
        store.apply(3, Tag{num, ProcessId::writer(0)}, BytesView(v));
    ASSERT_TRUE(res.added);
    stored += res.bytes_delta;

    const auto* rec = store.find(3);
    ASSERT_EQ(rec->log.size(), 1u);
    EXPECT_EQ(rec->log.newest().tag.num, num);
    EXPECT_EQ(static_cast<size_t>(stored), size);
    // A stale tag (Theorem 3's schedule: an old writer's put arriving
    // late) must be rejected, not resurrected.
    const auto stale =
        store.apply(3, Tag{num, ProcessId::writer(0)}, BytesView(v));
    EXPECT_FALSE(stale.added);
    EXPECT_EQ(stale.bytes_delta, 0);
  }
  EXPECT_EQ(store.walk_value_bytes(), static_cast<size_t>(stored));
  // 200 evictions of ~20-140 B blocks through a recycling slab: the arena
  // must stay within a couple of chunks, not grow per write.
  EXPECT_LT(store.resident_bytes(), 1u << 20);
}

}  // namespace
}  // namespace bftreg::registers
