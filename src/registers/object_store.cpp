#include "registers/object_store.h"

#include <algorithm>

namespace bftreg::registers {

// --- NewestCache ------------------------------------------------------------

void NewestCache::publish(const Tag& tag, BytesView value) {
  InlineEntry entry;
  entry.tag_num = tag.num;
  entry.writer_index = tag.writer.index;
  entry.writer_role = static_cast<uint8_t>(tag.writer.role);
  if (value.size() <= kInlineValueCap) {
    entry.oversize = 0;
    entry.len = static_cast<uint16_t>(value.size());
    if (!value.empty()) std::memcpy(entry.data, value.data(), value.size());
  } else {
    // Pointer first, sentinel second: a reader that observes the sentinel
    // through the seqlock's release/acquire pair also observes this store.
    oversize_.store(std::make_shared<const TaggedValue>(
                        TaggedValue{tag, Bytes(value.begin(), value.end())}),
                    std::memory_order_release);
    entry.oversize = 1;
  }
  inline_.publish(entry);
}

bool NewestCache::read(Tag* tag, Bytes* value) const {
  for (;;) {
    InlineEntry entry;
    if (!inline_.read(&entry)) return false;
    const Tag snapshot_tag{entry.tag_num,
                           ProcessId{static_cast<Role>(entry.writer_role),
                                     entry.writer_index}};
    if (entry.oversize == 0) {
      *tag = snapshot_tag;
      if (value != nullptr) value->assign(entry.data, entry.data + entry.len);
      return true;
    }
    // publish() stores the pointer before the snapshot that refers to it,
    // so the pointer may already carry a newer pair than our snapshot.
    // Returning it would not be monotonic: the next read could still see
    // the older (inline) snapshot that is active until the publish ends.
    // A tag mismatch means a publish is in flight; read again.
    const auto pair = oversize_.load(std::memory_order_acquire);
    if (pair == nullptr) return false;  // unreachable; defensive
    if (pair->tag != snapshot_tag) continue;
    *tag = pair->tag;
    if (value != nullptr) *value = pair->value;
    return true;
  }
}

// --- NewestCacheIndex -------------------------------------------------------

void NewestCacheIndex::insert(uint32_t object, const NewestCache* cache) {
  if (used_in_last_ == kNodesPerChunk) {
    node_chunks_.push_back(std::make_unique<Node[]>(kNodesPerChunk));
    used_in_last_ = 0;
  }
  Node* node = &node_chunks_.back()[used_in_last_++];
  node->object = object;
  node->cache = cache;
  std::atomic<Node*>& head = heads_[object & (kBuckets - 1)];
  node->next = head.load(std::memory_order_relaxed);
  // Publication point: the release pairs with find()'s acquire, ordering
  // the node's fields (and everything reachable through them) before any
  // reader can traverse to it.
  head.store(node, std::memory_order_release);
}

const NewestCache* NewestCacheIndex::find(uint32_t object) const {
  const std::atomic<Node*>& head = heads_[object & (kBuckets - 1)];
  for (const Node* n = head.load(std::memory_order_acquire); n != nullptr;
       n = n->next) {
    if (n->object == object) return n->cache;
  }
  return nullptr;
}

void NewestCacheIndex::collect(std::vector<uint32_t>* out) const {
  for (const std::atomic<Node*>& head : heads_) {
    for (const Node* n = head.load(std::memory_order_acquire); n != nullptr;
         n = n->next) {
      out->push_back(n->object);
    }
  }
}

// --- ObjectLog --------------------------------------------------------------

namespace {

void release_ref(ValueRef& ref, common::SlabArena& arena) {
  if (ref.len > ValueRef::kInlineCap) arena.deallocate(ref.ptr, ref.len);
  ref.len = 0;
}

}  // namespace

const LogEntry* ObjectLog::find(const Tag& tag) const {
  const LogEntry* lo = begin();
  const LogEntry* hi = end();
  while (lo < hi) {
    const LogEntry* mid = lo + (hi - lo) / 2;
    if (mid->tag < tag) {
      lo = mid + 1;
    } else if (tag < mid->tag) {
      hi = mid;
    } else {
      return mid;
    }
  }
  return nullptr;
}

void ObjectLog::grow(common::SlabArena& arena) {
  const uint32_t new_cap = cap_ == 0 ? 2 : cap_ * 2;
  auto* fresh = reinterpret_cast<LogEntry*>(
      arena.allocate(static_cast<size_t>(new_cap) * sizeof(LogEntry)));
  if (count_ > 0) {
    std::memcpy(fresh, slots_ + head_, count_ * sizeof(LogEntry));
  }
  if (slots_ != nullptr) {
    arena.deallocate(reinterpret_cast<uint8_t*>(slots_),
                     static_cast<size_t>(cap_) * sizeof(LogEntry));
  }
  slots_ = fresh;
  head_ = 0;
  cap_ = new_cap;
}

bool ObjectLog::insert(const Tag& tag, const ValueRef& val,
                       common::SlabArena& arena) {
  // Position of the first entry >= tag, relative to head_.
  uint32_t pos = count_;
  if (count_ > 0 && !(newest().tag < tag)) {
    const LogEntry* at = find(tag);
    if (at != nullptr) return false;
    const LogEntry* lo = begin();
    const LogEntry* hi = end();
    while (lo < hi) {
      const LogEntry* mid = lo + (hi - lo) / 2;
      if (mid->tag < tag) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    pos = static_cast<uint32_t>(lo - begin());
  }

  if (count_ == cap_) grow(arena);

  if (pos == count_ && head_ + count_ < cap_) {
    // Append fast path: tags are monotone per writer, so nearly every
    // insert lands here.
    slots_[head_ + count_] = LogEntry{tag, val};
  } else if (head_ > 0 && pos <= count_ / 2) {
    // Room at the front and the prefix is the shorter side.
    std::memmove(slots_ + head_ - 1, slots_ + head_, pos * sizeof(LogEntry));
    --head_;
    slots_[head_ + pos] = LogEntry{tag, val};
  } else {
    if (head_ + count_ == cap_) {
      // Back is full: reclaim the front slack (GC created it).
      assert(head_ > 0 && "grow() guarantees spare capacity");
      std::memmove(slots_, slots_ + head_, count_ * sizeof(LogEntry));
      head_ = 0;
    }
    std::memmove(slots_ + head_ + pos + 1, slots_ + head_ + pos,
                 (count_ - pos) * sizeof(LogEntry));
    slots_[head_ + pos] = LogEntry{tag, val};
  }
  ++count_;
  return true;
}

void ObjectLog::pop_oldest(common::SlabArena& arena) {
  assert(count_ > 0);
  release_ref(slots_[head_].val, arena);
  ++head_;
  --count_;
  if (count_ == 0) head_ = 0;
}

void ObjectLog::destroy(common::SlabArena& arena) {
  for (uint32_t i = 0; i < count_; ++i) {
    release_ref(slots_[head_ + i].val, arena);
  }
  if (slots_ != nullptr) {
    arena.deallocate(reinterpret_cast<uint8_t*>(slots_),
                     static_cast<size_t>(cap_) * sizeof(LogEntry));
  }
  slots_ = nullptr;
  head_ = count_ = cap_ = 0;
}

size_t ObjectLog::value_bytes() const {
  size_t total = 0;
  for (const LogEntry& e : *this) total += e.val.len;
  return total;
}

// --- CompactObjectStore -----------------------------------------------------

CompactObjectStore::CompactObjectStore(Bytes initial, StorePolicy policy,
                                       size_t max_history)
    : initial_(std::move(initial)),
      policy_(policy),
      max_history_(max_history) {}

CompactObjectStore::~CompactObjectStore() {
  // Values and log arrays live in arena_ whose chunks are freed wholesale;
  // per-log destroy() is only needed for huge blocks that bypassed the
  // arena's size classes (they are tracked individually).
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const size_t n = (c + 1 == chunks_.size()) ? used_in_last_ : kRecsPerChunk;
    for (size_t i = 0; i < n; ++i) chunks_[c][i].log.destroy(arena_);
  }
}

ValueRef CompactObjectStore::make_ref(BytesView value) {
  ValueRef ref;
  ref.len = static_cast<uint32_t>(value.size());
  if (ref.len <= ValueRef::kInlineCap) {
    if (ref.len > 0) std::memcpy(ref.inl, value.data(), ref.len);
  } else {
    ref.ptr = arena_.allocate(ref.len);
    std::memcpy(ref.ptr, value.data(), ref.len);
  }
  return ref;
}

std::pair<CompactObjectStore::ObjectRec*, size_t>
CompactObjectStore::materialize(uint32_t object) {
  auto [slot, inserted] = map_.try_emplace(object, 0u);
  if (!inserted) return {&rec_at(*slot), 0};

  if (used_in_last_ == kRecsPerChunk) {
    chunks_.push_back(std::make_unique<ObjectRec[]>(kRecsPerChunk));
    used_in_last_ = 0;
  }
  const uint32_t idx =
      static_cast<uint32_t>((chunks_.size() - 1) * kRecsPerChunk +
                            used_in_last_);
  ++used_in_last_;
  ++count_;
  *slot = idx;

  ObjectRec& rec = rec_at(idx);
  rec.object = object;
  rec.log.insert(Tag::initial(), make_ref(initial_), arena_);
  rec.newest.publish(Tag::initial(), initial_);
  // Index entry last: a cross-shard reader that finds the cache sees it
  // already holding the {t0, initial} snapshot. Records never move, so the
  // pointer survives future inserts.
  index_.insert(object, &rec.newest);
  return {&rec, initial_.size()};
}

CompactObjectStore::ApplyResult CompactObjectStore::apply(uint32_t object,
                                                          const Tag& tag,
                                                          BytesView value) {
  ApplyResult out;
  auto [rec, init_bytes] = materialize(object);
  out.rec = rec;
  out.bytes_delta = static_cast<long long>(init_bytes);

  switch (policy_) {
    case StorePolicy::kMaxOnly:
      // Fig. 3 line 5: add only if the tag beats everything in L.
      if (!(rec->log.newest().tag < tag)) return out;
      break;
    case StorePolicy::kAll:
      break;
  }
  if (!rec->log.insert(tag, make_ref(value), arena_)) return out;
  out.added = true;
  out.bytes_delta += static_cast<long long>(value.size());

  // Optional GC: drop the lowest-tagged entries beyond the budget. The
  // newest pair always survives, so QUERY-TAG / QUERY-DATA semantics are
  // untouched; only history-consulting reads feel this.
  if (max_history_ > 0) {
    while (rec->log.size() > max_history_) {
      out.bytes_delta -= static_cast<long long>(rec->log.oldest().val.len);
      rec->log.pop_oldest(arena_);
    }
  }
  return out;
}

void CompactObjectStore::publish(ObjectRec& rec) {
  const LogEntry& newest = rec.log.newest();
  rec.newest.publish(newest.tag, newest.val.view());
}

size_t CompactObjectStore::walk_value_bytes() const {
  size_t total = 0;
  for_each([&total](const ObjectRec& rec) { total += rec.log.value_bytes(); });
  return total;
}

size_t CompactObjectStore::resident_bytes() const {
  return chunks_.size() * kRecsPerChunk * sizeof(ObjectRec) +
         map_.allocated_bytes() + arena_.allocated_bytes() +
         index_.allocated_bytes();
}

}  // namespace bftreg::registers
