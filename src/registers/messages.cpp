#include "registers/messages.h"

#include "common/serde.h"

namespace bftreg::registers {

namespace {
constexpr uint8_t kMinType = static_cast<uint8_t>(MsgType::kQueryTag);
constexpr uint8_t kMaxType = static_cast<uint8_t>(MsgType::kViewAnnounce);
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
    case MsgType::kViewAnnounce: return "VIEW-ANNOUNCE";
  }
  return "?";
}

Bytes RegisterMessage::encode() const {
  // Exact wire size, so the buffer is allocated once and the (often large)
  // coded elements append without any realloc re-copy: fixed fields 13 +
  // tag 13 + 4 length prefixes + trailing epoch 8, plus 17 per history
  // entry (tag + length prefix), 13 per tag, 4 per object id, plus the raw
  // payload bytes.
  size_t total = 13 + 13 + 4 * 4 + 8 + value.size();
  for (const auto& tv : history) total += 17 + tv.value.size();
  total += 13 * tags.size() + 4 * objects.size();

  Serializer s;
  s.reserve(total);
  s.put_u8(static_cast<uint8_t>(type));
  s.put_u64(op_id);
  s.put_u32(object);
  s.put_tag(tag);
  s.put_bytes(value);
  s.put_u32(static_cast<uint32_t>(history.size()));
  for (const auto& tv : history) {
    s.put_tag(tv.tag);
    s.put_bytes(tv.value);
  }
  s.put_u32(static_cast<uint32_t>(tags.size()));
  for (const auto& t : tags) s.put_tag(t);
  s.put_u32(static_cast<uint32_t>(objects.size()));
  for (const uint32_t o : objects) s.put_u32(o);
  s.put_u64(epoch);
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
  m.tag = d.get_tag();
  // Large payloads (coded elements) flow through the zero-copy view and
  // land in their owning vector with exactly one copy.
  const BytesView value = d.get_bytes_view();
  m.value.assign(value.begin(), value.end());

  const uint32_t history_count = d.get_u32();
  if (!d.ok()) return std::nullopt;
  // Each entry needs at least a tag (13 bytes) + length prefix (4); a count
  // larger than the remaining bytes could allow is a forgery.
  if (static_cast<size_t>(history_count) * 17 > d.remaining()) return std::nullopt;
  m.history.reserve(history_count);
  for (uint32_t i = 0; i < history_count; ++i) {
    TaggedValue tv;
    tv.tag = d.get_tag();
    const BytesView hv = d.get_bytes_view();
    if (!d.ok()) return std::nullopt;
    tv.value.assign(hv.begin(), hv.end());
    m.history.push_back(std::move(tv));
  }

  const uint32_t tag_count = d.get_u32();
  if (!d.ok()) return std::nullopt;
  if (static_cast<size_t>(tag_count) * 13 > d.remaining()) return std::nullopt;
  m.tags.reserve(tag_count);
  for (uint32_t i = 0; i < tag_count; ++i) {
    m.tags.push_back(d.get_tag());
  }

  const uint32_t object_count = d.get_u32();
  if (!d.ok()) return std::nullopt;
  if (static_cast<size_t>(object_count) * 4 > d.remaining()) return std::nullopt;
  m.objects.reserve(object_count);
  for (uint32_t i = 0; i < object_count; ++i) m.objects.push_back(d.get_u32());

  m.epoch = d.get_u64();

  if (!d.done()) return std::nullopt;
  return m;
}

}  // namespace bftreg::registers
