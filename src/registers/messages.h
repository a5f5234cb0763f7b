// Wire messages for all register protocols (BSR, BCSR, regular variants,
// and the RB-based baseline).
//
// One tagged union covers every protocol so that a single defensive parser
// guards all of them: a Byzantine server's payload is parsed bounds-checked
// and rejected as a unit if malformed. Client requests carry an `op_id` so
// responses straggling in from a previous operation are ignored.
//
// Wire layout (compact and canonical):
//
//   offset 0   type       u8
//   offset 1   op_id      u64 little-endian
//   offset 9   object     u32 little-endian
//   offset 13  presence   u8: bit 0 tag, 1 value, 2 history, 3 tags,
//                         4 objects; bits 5-7 are reserved and zero
//   then each present field, in bit order:
//     tag      varint(num), varint(writer index << 2 | role)
//     value    varint(length), bytes
//     history  varint(count), then count x (tag, value)
//     tags     varint(count), then count x tag
//     objects  varint(count), then count x varint(id)
//
// Types run from 1 (QUERY-TAG) to 21 (OBJECTS-RESP) with no gaps.
//
// Varints are shortest-form unsigned LEB128 (common/serde.h). Bytes 0-12
// are fixed-width so routing can peek the type, op id and object in place
// (RegisterServer::shard_of). A field is present iff it differs from its
// default (Tag{}, empty, 0), and parse() accepts only that form, so
// parse(encode(m)) == m and encode(parse(b)) == b for every accepted b.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"

namespace bftreg::registers {

enum class MsgType : uint8_t {
  // --- BSR / BCSR core (Figs. 1-6) ---------------------------------------
  kQueryTag = 1,        // writer -> server: get-tag
  kTagResp = 2,         // server -> writer: max tag in L
  kPutData = 3,         // writer -> server: (tag, value | coded element)
  kAck = 4,             // server -> writer: put-data acknowledged
  kQueryData = 5,       // reader -> server: get-data (one-shot read)
  kDataResp = 6,        // server -> reader: (t_max, v_max | c_max)

  // --- regularity extensions (Section III-C) ------------------------------
  kQueryHistory = 7,    // reader -> server: get-data, history flavor
  kHistoryResp = 8,     // server -> reader: full list L
  kQueryTagHistory = 9, // reader -> server: 2R get-tag
  kTagHistoryResp = 10, // server -> reader: all tags in L
  kQueryDataAt = 11,    // reader -> server: 2R get-data for a specific tag
  kDataAtResp = 12,     // server -> reader: (t, v) for the requested tag
  kDataAtMissing = 13,  // server -> reader: tag not (yet) known
  kReadDone = 14,       // reader -> server: cancel deferred replies/subscription

  // --- RB-based baseline (Bracha among servers) ---------------------------
  kRbEcho = 15,         // server -> server
  kRbReady = 16,        // server -> server
  kDataUpdate = 17,     // server -> subscribed reader: newly applied pair

  // --- batched multi-object reads (library extension) ---------------------
  kQueryDataBatch = 18,  // reader -> server: newest pair of EACH object
  kDataBatchResp = 19,   // server -> reader: pairs aligned with `objects`

  // --- crash/rejoin catch-up (storage/persistent_server.h) ----------------
  kQueryObjects = 20,    // recovering server -> peer: list your object ids
  kObjectsResp = 21,     // peer -> recovering server: ids in `objects`
};

struct TaggedValue {
  Tag tag;
  Bytes value;

  friend bool operator==(const TaggedValue&, const TaggedValue&) = default;
  friend auto operator<=>(const TaggedValue&, const TaggedValue&) = default;
};

struct RegisterMessage {
  MsgType type{MsgType::kQueryTag};
  uint64_t op_id{0};
  /// Shared-variable (object) id: the model's "finite set of shared
  /// variables" (Section II-B). One server set emulates many independent
  /// registers; each request/response names the object it concerns.
  uint32_t object{0};
  Tag tag{};
  Bytes value;
  std::vector<TaggedValue> history;  // kHistoryResp; kDataBatchResp pairs
  std::vector<Tag> tags;             // kTagHistoryResp
  std::vector<uint32_t> objects;     // kQueryDataBatch / kDataBatchResp /
                                     // kObjectsResp

  /// Exact-size encoding: one allocation per message.
  Bytes encode() const;

  /// Defensive parse; nullopt on any malformation or non-canonical form:
  /// wrong type byte, reserved presence bits, a present field holding its
  /// default, overlong or over-wide varints, u32 fields out of range, role
  /// 3, counts or lengths the remaining bytes cannot hold, truncation, and
  /// trailing bytes.
  static std::optional<RegisterMessage> parse(BytesView payload);

  friend bool operator==(const RegisterMessage&, const RegisterMessage&) = default;
};

const char* to_string(MsgType t);

}  // namespace bftreg::registers
