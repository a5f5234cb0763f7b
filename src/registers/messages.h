// Wire messages for all register protocols (BSR, BCSR, regular variants,
// and the RB-based baseline).
//
// One tagged union covers every protocol so that a single defensive parser
// guards all of them: a Byzantine server's payload is parsed bounds-checked
// and rejected as a unit if malformed. Client requests carry an `op_id` so
// responses straggling in from a previous operation are ignored.
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

  // --- dynamic membership (reconfiguration extension) ----------------------
  kQueryObjects = 20,    // recovering server -> peer: list your object ids
  kObjectsResp = 21,     // peer -> recovering server: ids in `objects`
  kViewAnnounce = 22,    // join/leave announcement: `epoch` + members in
                         // `objects` (empty = the full static server set)
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
  std::vector<uint32_t> objects;     // kQueryDataBatch / kDataBatchResp;
                                     // member server indices (kViewAnnounce)
  /// Membership epoch this message was sent under. Servers stamp their
  /// current epoch into every reply so clients learn of view changes by
  /// piggyback; 0 is the initial (static) view. Trails the wire format so
  /// the object-id peek at offset 9 (RegisterServer::shard_of) is
  /// untouched.
  uint64_t epoch{0};

  Bytes encode() const;

  /// Defensive parse; nullopt on any malformation (wrong type byte,
  /// truncation, oversized counts, trailing bytes).
  static std::optional<RegisterMessage> parse(BytesView payload);
};

const char* to_string(MsgType t);

}  // namespace bftreg::registers
