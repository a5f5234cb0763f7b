// Sample RegisterMessages for the wire-format tests and the parse fuzzer.
#pragma once

#include <cstdint>

#include "registers/messages.h"

namespace bftreg::registers {

/// MsgType values run from 1 to this, with no gaps.
inline constexpr uint8_t kLastMsgType = static_cast<uint8_t>(MsgType::kObjectsResp);

/// Presence bits, in wire order (messages.h): tag, value, history, tags,
/// objects.
inline constexpr uint8_t kAllFields = 0x1f;

/// A message of `type` whose optional fields are populated exactly where
/// `fields` has the matching presence bit. The populated values mix
/// one-byte and multi-byte varints, and the lists hold default entries
/// (which list entries may).
inline RegisterMessage sample_message(MsgType type, uint8_t fields) {
  RegisterMessage m;
  m.type = type;
  m.op_id = 0x1122334455667788ULL;
  m.object = 300;
  if (fields & 0x01) m.tag = Tag{200, ProcessId::writer(70000)};
  if (fields & 0x02) m.value = Bytes(130, 0xab);
  if (fields & 0x04) {
    m.history = {TaggedValue{Tag{}, {}},
                 TaggedValue{Tag{1, ProcessId::reader(2)}, Bytes{9}},
                 TaggedValue{Tag{UINT64_MAX, ProcessId::writer(UINT32_MAX)},
                             Bytes(3, 7)}};
  }
  if (fields & 0x08) {
    m.tags = {Tag{}, Tag{5, ProcessId::writer(2)},
              Tag{1ULL << 40, ProcessId::server(1)}};
  }
  if (fields & 0x10) m.objects = {0, 127, 128, UINT32_MAX};
  return m;
}

}  // namespace bftreg::registers
