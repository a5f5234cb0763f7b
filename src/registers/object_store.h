// Compact per-shard object store: the million-object storage layer.
//
// This header is the storage half of registers/server.h (and of the RB
// baseline server): everything a shard keeps per object, engineered for
// object-count scale. The previous layout -- `std::map<uint32_t,
// ObjectState>` shard tables, a `std::map<Tag, Bytes>` list L per object,
// every value its own heap vector -- costs a dozen malloc nodes and several
// hundred stray bytes per object. Here the same state is:
//
//   * CompactObjectStore: an open-addressing FlatHashMap from object id to
//     a slot in a chunked pool of 32-byte ObjectRecs (the log plus the
//     object id). The pool keeps the table's slots at 8 bytes; a table of
//     whole records would pay record size for every empty slot too.
//   * ObjectLog: the list L as a compact sorted array with front slack -- a
//     small-vector ring. Entries are 40-byte PODs (16-byte Tag + 24-byte
//     ValueRef) kept in ascending tag order; appends of growing tags (the
//     common case -- tags are monotone per writer) are O(1), `max_history`
//     GC pops the front without shifting, and back-filled old tags memmove
//     the shorter side.
//   * ValueRef: value bytes up to 16 bytes live inside the entry itself;
//     longer values are blocks in the shard's SlabArena (no per-value
//     malloc, no per-block header).
//
// Not thread-safe. The newest pair of L is read in place (log.newest()),
// so a store has no second copy of it to keep in step. A server whose
// other threads read a shard's objects guards that shard's whole store
// with one mutex (registers/server.h).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/slab.h"
#include "common/types.h"
#include "registers/config.h"
#include "registers/messages.h"

namespace bftreg::registers {

/// Value bytes by reference: inline up to kInlineCap, else a slab block.
/// POD on purpose -- log entries are moved with memmove. Lifecycle is
/// managed by CompactObjectStore (make/release against the shard's arena).
struct ValueRef {
  static constexpr uint32_t kInlineCap = 16;

  uint32_t len{0};
  union {
    uint8_t inl[kInlineCap];
    uint8_t* ptr;
  };

  BytesView view() const {
    return len <= kInlineCap ? BytesView(inl, len) : BytesView(ptr, len);
  }
};

/// One entry of the list L: 40 trivially-copyable bytes.
struct LogEntry {
  Tag tag;
  ValueRef val;
};
static_assert(std::is_trivially_copyable_v<LogEntry>,
              "ObjectLog moves entries with memmove");

/// The list L as a sorted array with front slack. Entries live at
/// [slots_+head, slots_+head+count), ascending by tag. GC pops the front in
/// O(1) (the slack); inserts append at the back in O(1) when the tag is the
/// new maximum (the common case) and shift the cheaper side otherwise.
/// The backing array comes from the shard's SlabArena; every mutating call
/// takes the arena explicitly because the log itself is 20 bytes and owns
/// no allocator.
class ObjectLog {
 public:
  uint32_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  const LogEntry* begin() const { return slots_ + head_; }
  const LogEntry* end() const { return slots_ + head_ + count_; }
  const LogEntry& oldest() const { return slots_[head_]; }
  const LogEntry& newest() const { return slots_[head_ + count_ - 1]; }

  /// Binary search; nullptr when the tag is not present.
  const LogEntry* find(const Tag& tag) const;

  /// Sorted insert. Returns false (and leaves the log untouched) when the
  /// tag is already present.
  bool insert(const Tag& tag, const ValueRef& val, common::SlabArena& arena);

  /// Releases the oldest entry's value and drops it. Precondition: !empty().
  void pop_oldest(common::SlabArena& arena);

  /// Releases every value and the backing array (store teardown).
  void destroy(common::SlabArena& arena);

  /// Bytes of value payload across all entries.
  size_t value_bytes() const;

 private:
  void grow(common::SlabArena& arena);

  LogEntry* slots_{nullptr};
  uint32_t head_{0};
  uint32_t count_{0};
  uint32_t cap_{0};
};

/// Everything one shard stores about its objects. Single-threaded.
class CompactObjectStore {
 public:
  /// 32 bytes: the 24-byte log and the object id.
  struct ObjectRec {
    ObjectLog log;
    uint32_t object{0};
  };
  static_assert(sizeof(ObjectRec) <= 32, "docs/PERF.md budgets 32 B/record");

  struct ApplyResult {
    bool added{false};
    /// Value bytes added minus bytes GC'd (the caller maintains whatever
    /// aggregate counter its introspection API promises).
    long long bytes_delta{0};
  };

  CompactObjectStore(Bytes initial, StorePolicy policy, size_t max_history);
  ~CompactObjectStore();

  CompactObjectStore(const CompactObjectStore&) = delete;
  CompactObjectStore& operator=(const CompactObjectStore&) = delete;

  /// Creates (if needed) `object`'s record, seeding the log with
  /// {t0, initial} on first touch. Returns (record, value bytes added:
  /// initial size or 0).
  std::pair<ObjectRec*, size_t> materialize(uint32_t object);

  /// Read-only lookup; never inserts (a client querying random ids must
  /// not balloon server state).
  const ObjectRec* find(uint32_t object) const {
    const uint32_t* idx = map_.find(object);
    return idx == nullptr ? nullptr : &rec_at(*idx);
  }
  ObjectRec* find(uint32_t object) {
    uint32_t* idx = map_.find(object);
    return idx == nullptr ? nullptr : &rec_at(*idx);
  }

  /// Inserts (tag, value) per the store policy, then applies max_history
  /// GC.
  ApplyResult apply(uint32_t object, const Tag& tag, BytesView value);

  size_t size() const { return count_; }

  /// fn(const ObjectRec&) for every record, unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const size_t n =
          (c + 1 == chunks_.size()) ? used_in_last_ : kRecsPerChunk;
      for (size_t i = 0; i < n; ++i) fn(chunks_[c][i]);
    }
  }

  /// Full walk of value payload bytes (debug cross-check of the caller's
  /// incremental counter).
  size_t walk_value_bytes() const;

  /// Bytes this store holds from the system: record chunks, hash table,
  /// slab chunks. The bench's resident-per-object metric reads this.
  size_t resident_bytes() const;

  const Bytes& initial_value() const { return initial_; }

 private:
  static constexpr size_t kRecsPerChunk = 256;  // 256 * 32 B = 8 KiB

  ObjectRec& rec_at(uint32_t idx) {
    return chunks_[idx / kRecsPerChunk][idx % kRecsPerChunk];
  }
  const ObjectRec& rec_at(uint32_t idx) const {
    return chunks_[idx / kRecsPerChunk][idx % kRecsPerChunk];
  }

  ValueRef make_ref(BytesView value);

  Bytes initial_;
  const StorePolicy policy_;
  const size_t max_history_;

  common::FlatHashMap<uint32_t, uint32_t> map_;  // object -> record index
  std::vector<std::unique_ptr<ObjectRec[]>> chunks_;
  size_t used_in_last_{kRecsPerChunk};
  size_t count_{0};
  common::SlabArena arena_;
};

}  // namespace bftreg::registers
