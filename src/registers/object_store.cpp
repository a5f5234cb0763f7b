#include "registers/object_store.h"

#include <algorithm>

namespace bftreg::registers {

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
  return {&rec, initial_.size()};
}

CompactObjectStore::ApplyResult CompactObjectStore::apply(uint32_t object,
                                                          const Tag& tag,
                                                          BytesView value) {
  ApplyResult out;
  auto [rec, init_bytes] = materialize(object);
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

size_t CompactObjectStore::walk_value_bytes() const {
  size_t total = 0;
  for_each([&total](const ObjectRec& rec) { total += rec.log.value_bytes(); });
  return total;
}

size_t CompactObjectStore::resident_bytes() const {
  return chunks_.size() * kRecsPerChunk * sizeof(ObjectRec) +
         map_.allocated_bytes() + arena_.allocated_bytes();
}

}  // namespace bftreg::registers
