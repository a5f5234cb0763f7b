#include "registers/messages.h"

#include "common/serde.h"

namespace bftreg::registers {

namespace {
constexpr uint8_t kMinType = static_cast<uint8_t>(MsgType::kQueryTag);
constexpr uint8_t kMaxType = static_cast<uint8_t>(MsgType::kObjectsResp);

/// Type, op id and object: the fixed-width prefix.
constexpr size_t kFixedBytes = 1 + 8 + 4;

/// Presence byte: one bit per optional field; bits 5-7 are reserved.
enum Presence : uint8_t {
  kHasTag = 1 << 0,
  kHasValue = 1 << 1,
  kHasHistory = 1 << 2,
  kHasTags = 1 << 3,
  kHasObjects = 1 << 4,
};
constexpr uint8_t kPresenceMask = (1 << 5) - 1;

/// Smallest compact tag: one varint byte each for num and writer.
constexpr size_t kMinTagBytes = 2;

/// A list count just read from `d`: nonzero (present lists are never empty),
/// and no larger than the remaining bytes could hold, so a forged count fails
/// before anything is reserved. The bound divides: a 64-bit count times
/// the entry size can wrap past a multiplied check.
bool count_fits(const Deserializer& d, uint64_t count, size_t min_entry_bytes) {
  return d.ok() && count != 0 && count <= d.remaining() / min_entry_bytes;
}

/// A field is present iff it differs from its default.
uint8_t presence_of(const RegisterMessage& m) {
  uint8_t p = 0;
  if (m.tag != Tag{}) p |= kHasTag;
  if (!m.value.empty()) p |= kHasValue;
  if (!m.history.empty()) p |= kHasHistory;
  if (!m.tags.empty()) p |= kHasTags;
  if (!m.objects.empty()) p |= kHasObjects;
  return p;
}
}  // namespace

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kQueryTag: return "QUERY-TAG";
    case MsgType::kTagResp: return "TAG-RESP";
    case MsgType::kPutData: return "PUT-DATA";
    case MsgType::kAck: return "ACK";
    case MsgType::kQueryData: return "QUERY-DATA";
    case MsgType::kDataResp: return "DATA-RESP";
    case MsgType::kQueryHistory: return "QUERY-HISTORY";
    case MsgType::kHistoryResp: return "HISTORY-RESP";
    case MsgType::kQueryTagHistory: return "QUERY-TAG-HISTORY";
    case MsgType::kTagHistoryResp: return "TAG-HISTORY-RESP";
    case MsgType::kQueryDataAt: return "QUERY-DATA-AT";
    case MsgType::kDataAtResp: return "DATA-AT-RESP";
    case MsgType::kDataAtMissing: return "DATA-AT-MISSING";
    case MsgType::kReadDone: return "READ-DONE";
    case MsgType::kRbEcho: return "RB-ECHO";
    case MsgType::kRbReady: return "RB-READY";
    case MsgType::kDataUpdate: return "DATA-UPDATE";
    case MsgType::kQueryDataBatch: return "QUERY-DATA-BATCH";
    case MsgType::kDataBatchResp: return "DATA-BATCH-RESP";
    case MsgType::kQueryObjects: return "QUERY-OBJECTS";
    case MsgType::kObjectsResp: return "OBJECTS-RESP";
  }
  return "?";
}

Bytes RegisterMessage::encode() const {
  const uint8_t presence = presence_of(*this);
  // Exact wire size, so the buffer is allocated once and the (often large)
  // coded elements append without any realloc re-copy.
  size_t total = kFixedBytes + 1;
  if (presence & kHasTag) total += Serializer::compact_tag_size(tag);
  if (presence & kHasValue) total += Serializer::compact_bytes_size(value.size());
  if (presence & kHasHistory) {
    total += Serializer::varint_size(history.size());
    for (const auto& tv : history) {
      total += Serializer::compact_tag_size(tv.tag) +
               Serializer::compact_bytes_size(tv.value.size());
    }
  }
  if (presence & kHasTags) {
    total += Serializer::varint_size(tags.size());
    for (const Tag& t : tags) total += Serializer::compact_tag_size(t);
  }
  if (presence & kHasObjects) {
    total += Serializer::varint_size(objects.size());
    for (const uint32_t o : objects) total += Serializer::varint_size(o);
  }

  Serializer s;
  s.reserve(total);
  s.put_u8(static_cast<uint8_t>(type));
  s.put_u64(op_id);
  s.put_u32(object);
  s.put_u8(presence);
  if (presence & kHasTag) s.put_compact_tag(tag);
  if (presence & kHasValue) s.put_compact_bytes(value);
  if (presence & kHasHistory) {
    s.put_varint(history.size());
    for (const auto& tv : history) {
      s.put_compact_tag(tv.tag);
      s.put_compact_bytes(tv.value);
    }
  }
  if (presence & kHasTags) {
    s.put_varint(tags.size());
    for (const Tag& t : tags) s.put_compact_tag(t);
  }
  if (presence & kHasObjects) {
    s.put_varint(objects.size());
    for (const uint32_t o : objects) s.put_varint(o);
  }
  return s.take();
}

std::optional<RegisterMessage> RegisterMessage::parse(BytesView payload) {
  Deserializer d(payload);
  RegisterMessage m;
  const uint8_t type = d.get_u8();
  if (!d.ok() || type < kMinType || type > kMaxType) return std::nullopt;
  m.type = static_cast<MsgType>(type);
  m.op_id = d.get_u64();
  m.object = d.get_u32();
  const uint8_t presence = d.get_u8();
  if (!d.ok() || (presence & ~kPresenceMask) != 0) return std::nullopt;

  // Canonical form: a present field never holds its default, so every
  // message has exactly one encoding.
  if (presence & kHasTag) {
    m.tag = d.get_compact_tag();
    if (!d.ok() || m.tag == Tag{}) return std::nullopt;
  }
  if (presence & kHasValue) {
    // Large payloads (coded elements) flow through the zero-copy view and
    // land in their owning vector with exactly one copy.
    const BytesView value = d.get_compact_bytes_view();
    if (!d.ok() || value.empty()) return std::nullopt;
    m.value.assign(value.begin(), value.end());
  }
  if (presence & kHasHistory) {
    const uint64_t count = d.get_varint();
    if (!count_fits(d, count, kMinTagBytes + 1)) return std::nullopt;
    m.history.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      TaggedValue tv;
      tv.tag = d.get_compact_tag();
      const BytesView hv = d.get_compact_bytes_view();
      if (!d.ok()) return std::nullopt;
      tv.value.assign(hv.begin(), hv.end());
      m.history.push_back(std::move(tv));
    }
  }
  if (presence & kHasTags) {
    const uint64_t count = d.get_varint();
    if (!count_fits(d, count, kMinTagBytes)) return std::nullopt;
    m.tags.reserve(count);
    for (uint64_t i = 0; i < count; ++i) m.tags.push_back(d.get_compact_tag());
  }
  if (presence & kHasObjects) {
    const uint64_t count = d.get_varint();
    if (!count_fits(d, count, 1)) return std::nullopt;
    m.objects.reserve(count);
    for (uint64_t i = 0; i < count; ++i) m.objects.push_back(d.get_varint32());
  }

  if (!d.done()) return std::nullopt;
  return m;
}

}  // namespace bftreg::registers
