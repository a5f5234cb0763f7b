// Wire-format tests: round trips, pinned sizes, and adversarial payload
// handling of the compact layout (messages.h).
#include <gtest/gtest.h>

#include <initializer_list>

#include "common/rng.h"
#include "common/serde.h"
#include "message_samples.h"
#include "registers/messages.h"

namespace bftreg::registers {
namespace {

/// Bytes 0-13 of a hand-built payload: type, zero op id and object, and
/// the presence byte.
Bytes header(MsgType type, uint8_t presence) {
  Bytes b(14, 0);
  b[0] = static_cast<uint8_t>(type);
  b[13] = presence;
  return b;
}

Bytes varint(uint64_t v) {
  Serializer s;
  s.put_varint(v);
  return s.take();
}

Bytes cat(Bytes a, std::initializer_list<Bytes> rest) {
  for (const Bytes& r : rest) a.insert(a.end(), r.begin(), r.end());
  return a;
}

bool accepted(const Bytes& b) { return RegisterMessage::parse(b).has_value(); }

TEST(MessagesTest, RoundTripQueryTag) {
  RegisterMessage m;
  m.type = MsgType::kQueryTag;
  m.op_id = 42;
  auto parsed = RegisterMessage::parse(m.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, MsgType::kQueryTag);
  EXPECT_EQ(parsed->op_id, 42u);
}

TEST(MessagesTest, RoundTripPutData) {
  RegisterMessage m;
  m.type = MsgType::kPutData;
  m.op_id = 7;
  m.tag = Tag{99, ProcessId::writer(3)};
  m.value = Bytes{1, 2, 3, 4, 5};
  auto parsed = RegisterMessage::parse(m.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tag, m.tag);
  EXPECT_EQ(parsed->value, m.value);
}

TEST(MessagesTest, RoundTripHistory) {
  RegisterMessage m;
  m.type = MsgType::kHistoryResp;
  m.op_id = 1;
  m.history = {TaggedValue{Tag{1, ProcessId::writer(0)}, Bytes{9}},
               TaggedValue{Tag{2, ProcessId::writer(1)}, Bytes{8, 8}},
               TaggedValue{Tag::initial(), {}}};
  auto parsed = RegisterMessage::parse(m.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->history, m.history);
}

TEST(MessagesTest, RoundTripTagHistory) {
  RegisterMessage m;
  m.type = MsgType::kTagHistoryResp;
  m.tags = {Tag::initial(), Tag{5, ProcessId::writer(2)}};
  auto parsed = RegisterMessage::parse(m.encode());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tags, m.tags);
}

TEST(MessagesTest, RoundTripEveryType) {
  // All 21 types, each with every combination of absent and populated
  // fields: parse(encode(m)) == m, encode(parse(b)) == b, and the presence
  // byte names exactly the populated fields.
  for (uint8_t t = 1; t <= kLastMsgType; ++t) {
    for (uint8_t fields = 0; fields <= kAllFields; ++fields) {
      const RegisterMessage m = sample_message(static_cast<MsgType>(t), fields);
      const Bytes b = m.encode();
      EXPECT_EQ(b[13], fields) << "type=" << int(t);
      const auto parsed = RegisterMessage::parse(b);
      ASSERT_TRUE(parsed.has_value()) << "type=" << int(t) << " fields=" << int(fields);
      EXPECT_TRUE(*parsed == m) << "type=" << int(t) << " fields=" << int(fields);
      EXPECT_EQ(parsed->encode(), b) << "type=" << int(t) << " fields=" << int(fields);
    }
  }
}

TEST(MessagesTest, EncodeAllocatesExactSize) {
  for (uint8_t fields = 0; fields <= kAllFields; ++fields) {
    const Bytes b = sample_message(MsgType::kHistoryResp, fields).encode();
    EXPECT_EQ(b.capacity(), b.size()) << "fields=" << int(fields);
  }
}

TEST(MessagesTest, FixedPrefixIsByteIdentical) {
  // RegisterServer::shard_of and quorumbench's peek_wire read these bytes
  // in place: type at 0, op id (u64 LE) at 1, object (u32 LE) at 9.
  RegisterMessage m;
  m.type = MsgType::kQueryData;
  m.op_id = 0x1122334455667788ULL;
  m.object = 0xa1b2c3d4;
  m.tag = Tag{3, ProcessId::writer(0)};
  const Bytes b = m.encode();
  const Bytes prefix{5,    0x88, 0x77, 0x66, 0x55, 0x44, 0x33,
                     0x22, 0x11, 0xd4, 0xc3, 0xb2, 0xa1};
  ASSERT_GE(b.size(), prefix.size());
  EXPECT_EQ(Bytes(b.begin(), b.begin() + 13), prefix);
  EXPECT_EQ(b[13], 0x01);  // tag only
}

TEST(MessagesTest, EncodedSizesArePinned) {
  // The quorumbench traffic: small tag numbers, writer index <= 2,
  // 128 B values on BSR.
  RegisterMessage query;
  query.op_id = 0xfedcba9876543210ULL;
  query.object = 9999;
  for (MsgType t : {MsgType::kQueryTag, MsgType::kQueryData}) {
    query.type = t;
    EXPECT_EQ(query.encode().size(), 14u) << to_string(t);
  }
  RegisterMessage reply = query;
  reply.tag = Tag{127, ProcessId::writer(2)};
  for (MsgType t : {MsgType::kTagResp, MsgType::kAck}) {
    reply.type = t;
    EXPECT_EQ(reply.encode().size(), 16u) << to_string(t);
  }
  reply.value = Bytes(128, 1);
  for (MsgType t : {MsgType::kPutData, MsgType::kDataResp}) {
    reply.type = t;
    EXPECT_EQ(reply.encode().size(), 146u) << to_string(t);
  }
}

TEST(MessagesTest, RejectsEmptyPayload) {
  EXPECT_FALSE(RegisterMessage::parse({}).has_value());
}

TEST(MessagesTest, RejectsUnknownType) {
  RegisterMessage m;
  m.type = MsgType::kQueryTag;
  Bytes b = m.encode();
  b[0] = 0;  // below range
  EXPECT_FALSE(RegisterMessage::parse(b).has_value());
  b[0] = kLastMsgType + 1;  // above range
  EXPECT_FALSE(RegisterMessage::parse(b).has_value());
  b[0] = 200;
  EXPECT_FALSE(RegisterMessage::parse(b).has_value());
}

TEST(MessagesTest, RejectsTruncation) {
  // Every proper prefix of every fully populated encoding fails.
  for (uint8_t t = 1; t <= kLastMsgType; ++t) {
    const Bytes b = sample_message(static_cast<MsgType>(t), kAllFields).encode();
    for (size_t cut = 0; cut < b.size(); ++cut) {
      const Bytes prefix(b.begin(), b.begin() + cut);
      EXPECT_FALSE(accepted(prefix)) << "type=" << int(t) << " cut=" << cut;
    }
  }
}

TEST(MessagesTest, RejectsTrailingGarbage) {
  RegisterMessage m;
  m.type = MsgType::kAck;
  Bytes b = m.encode();
  b.push_back(0xFF);
  EXPECT_FALSE(RegisterMessage::parse(b).has_value());
  b.back() = 0x00;
  EXPECT_FALSE(RegisterMessage::parse(b).has_value());
}

TEST(MessagesTest, RejectsReservedPresenceBits) {
  EXPECT_TRUE(accepted(header(MsgType::kQueryData, 0x00)));
  // Bit 5 once carried a membership epoch; it is reserved now, with or
  // without the varint it used to announce.
  EXPECT_FALSE(accepted(header(MsgType::kQueryData, 0x20)));
  EXPECT_FALSE(accepted(cat(header(MsgType::kDataResp, 0x20), {{0x01}})));
  EXPECT_FALSE(accepted(header(MsgType::kQueryData, 0x40)));
  EXPECT_FALSE(accepted(header(MsgType::kQueryData, 0x80)));
  Bytes b = sample_message(MsgType::kDataResp, 0x03).encode();
  b[13] |= 0x40;
  EXPECT_FALSE(accepted(b));
}

TEST(MessagesTest, RejectsPresentFieldHoldingItsDefault) {
  // Tag{} is (0, server 0). (0, writer 0) is not the default.
  EXPECT_FALSE(accepted(cat(header(MsgType::kAck, 0x01), {{0x00, 0x00}})));
  EXPECT_TRUE(accepted(cat(header(MsgType::kAck, 0x01), {{0x00, 0x01}})));
  EXPECT_FALSE(accepted(cat(header(MsgType::kPutData, 0x02), {{0x00}})));
  EXPECT_FALSE(accepted(cat(header(MsgType::kHistoryResp, 0x04), {{0x00}})));
  EXPECT_FALSE(accepted(cat(header(MsgType::kTagHistoryResp, 0x08), {{0x00}})));
  EXPECT_FALSE(accepted(cat(header(MsgType::kObjectsResp, 0x10), {{0x00}})));
}

TEST(MessagesTest, RejectsOverlongAndOverWideVarints) {
  // A tag's num is the wire's u64 varint; each case is followed by the
  // writer byte 0x01 (writer 0).
  const Bytes tag = header(MsgType::kAck, 0x01);
  const Bytes writer{0x01};
  EXPECT_FALSE(accepted(cat(tag, {{0x81, 0x00}, writer})));  // 1, overlong
  EXPECT_FALSE(accepted(cat(header(MsgType::kPutData, 0x02), {{0x81, 0x00, 0x07}})));
  const Bytes max64{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01};
  EXPECT_TRUE(accepted(cat(tag, {max64, writer})));
  Bytes wider = max64;
  wider.back() = 0x02;  // bit 64
  EXPECT_FALSE(accepted(cat(tag, {wider, writer})));
  wider.back() = 0x81;  // an eleventh byte
  EXPECT_FALSE(accepted(cat(tag, {wider, {0x01}, writer})));
}

TEST(MessagesTest, RejectsU32FieldsAboveRange) {
  const Bytes objects = header(MsgType::kObjectsResp, 0x10);
  EXPECT_TRUE(accepted(cat(objects, {{0x01}, varint(UINT32_MAX)})));
  EXPECT_FALSE(accepted(cat(objects, {{0x01}, varint(1ULL << 32)})));
  // Writer index: varint(index << 2 | role).
  const Bytes tag = header(MsgType::kAck, 0x01);
  EXPECT_TRUE(accepted(cat(tag, {{0x01}, varint((uint64_t{UINT32_MAX} << 2) | 1)})));
  EXPECT_FALSE(accepted(cat(tag, {{0x01}, varint((1ULL << 34) | 1)})));
}

TEST(MessagesTest, RejectsRole3) {
  const Bytes tag = header(MsgType::kAck, 0x01);
  EXPECT_TRUE(accepted(cat(tag, {{0x01, 0x02}})));
  EXPECT_FALSE(accepted(cat(tag, {{0x01, 0x03}})));
  const Bytes tags = header(MsgType::kTagHistoryResp, 0x08);
  EXPECT_FALSE(accepted(cat(tags, {{0x01, 0x05, 0x07}})));
}

TEST(MessagesTest, RejectsCountsAndLengthsPastTheBuffer) {
  const Bytes value = header(MsgType::kPutData, 0x02);
  EXPECT_TRUE(accepted(cat(value, {{0x04, 1, 2, 3, 4}})));
  EXPECT_FALSE(accepted(cat(value, {{0x05, 1, 2, 3, 4}})));
  // History entries take >= 3 bytes, tags >= 2, object ids >= 1.
  const Bytes history = header(MsgType::kHistoryResp, 0x04);
  EXPECT_FALSE(accepted(cat(history, {{0x02, 1, 1, 0, 1, 1}})));
  const Bytes tags = header(MsgType::kTagHistoryResp, 0x08);
  EXPECT_FALSE(accepted(cat(tags, {{0x03, 1, 1, 1, 1, 1}})));
  const Bytes objects = header(MsgType::kObjectsResp, 0x10);
  EXPECT_FALSE(accepted(cat(objects, {{0x03, 1, 1}})));
  EXPECT_TRUE(accepted(cat(objects, {{0x03, 1, 1, 1}})));
}

TEST(MessagesTest, RejectsForgedHistoryCount) {
  // Claim 2^30 history entries with a tiny buffer: must fail before
  // reserving anything, not allocate for the claimed count.
  const Bytes b = cat(header(MsgType::kHistoryResp, 0x04),
                      {varint(1ULL << 30), {1, 1, 0, 1, 1, 0}});
  EXPECT_FALSE(RegisterMessage::parse(b).has_value());
}

TEST(MessagesTest, RejectsCountThatWrapsAMultipliedBound) {
  // 0x5555555555555556 * 3 wraps to 2: a `count * 3 > remaining()` check
  // would pass it and reserve() would throw. The bound must divide.
  const Bytes b = cat(header(MsgType::kHistoryResp, 0x04),
                      {varint(0x5555555555555556ULL), {0, 0, 0}});
  EXPECT_NO_THROW(EXPECT_FALSE(accepted(b)));
}

TEST(MessagesTest, SurvivesRandomFuzzWithoutCrashing) {
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    Bytes junk(rng.uniform(128));
    for (auto& v : junk) v = static_cast<uint8_t>(rng.uniform(256));
    auto parsed = RegisterMessage::parse(junk);  // must not crash or hang
    if (parsed) {
      EXPECT_EQ(parsed->encode(), junk);
    }
  }
}

TEST(MessagesTest, MutationFuzzRoundTripNeverCrashes) {
  Rng rng(123);
  RegisterMessage m;
  m.type = MsgType::kHistoryResp;
  m.history = {TaggedValue{Tag{1, ProcessId::writer(0)}, Bytes(32, 1)},
               TaggedValue{Tag{2, ProcessId::writer(0)}, Bytes(32, 2)}};
  const Bytes base = m.encode();
  for (int i = 0; i < 5000; ++i) {
    Bytes mutated = base;
    const size_t flips = 1 + rng.uniform(4);
    for (size_t j = 0; j < flips; ++j) {
      mutated[rng.uniform(mutated.size())] ^= static_cast<uint8_t>(1 + rng.uniform(255));
    }
    auto parsed = RegisterMessage::parse(mutated);
    if (parsed) {
      EXPECT_EQ(parsed->encode(), mutated);
    }
  }
}

}  // namespace
}  // namespace bftreg::registers
