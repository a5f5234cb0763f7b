// Unit tests for src/common: ids, tags, serialization, rng, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>

#include "common/rng.h"
#include "common/serde.h"
#include "common/stats.h"
#include "common/types.h"

namespace bftreg {
namespace {

TEST(ProcessIdTest, TotalOrderIsLexicographicOnRoleThenIndex) {
  // The model requires R ∪ W ∪ S to be totally ordered (Section II-A).
  const ProcessId s0 = ProcessId::server(0);
  const ProcessId s1 = ProcessId::server(1);
  const ProcessId w0 = ProcessId::writer(0);
  const ProcessId r0 = ProcessId::reader(0);
  EXPECT_LT(s0, s1);
  EXPECT_LT(s1, w0);  // servers sort before writers
  EXPECT_LT(w0, r0);  // writers before readers
  EXPECT_EQ(s0, ProcessId::server(0));
}

TEST(ProcessIdTest, RoleHelpers) {
  EXPECT_TRUE(ProcessId::server(3).is_server());
  EXPECT_FALSE(ProcessId::server(3).is_client());
  EXPECT_TRUE(ProcessId::writer(1).is_client());
  EXPECT_TRUE(ProcessId::reader(2).is_client());
}

TEST(ProcessIdTest, ToStringIsReadable) {
  EXPECT_EQ(to_string(ProcessId::server(7)), "server:7");
  EXPECT_EQ(to_string(ProcessId::reader(0)), "reader:0");
}

TEST(TagTest, OrderIsNumberThenWriterId) {
  // Lemma 2's tie-break: equal numbers are ordered by writer id.
  const Tag a{3, ProcessId::writer(0)};
  const Tag b{3, ProcessId::writer(1)};
  const Tag c{4, ProcessId::writer(0)};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
}

TEST(TagTest, InitialTagIsSmallest) {
  const Tag t0 = Tag::initial();
  EXPECT_TRUE(t0.is_initial());
  EXPECT_LT(t0, (Tag{1, ProcessId::writer(0)}));
}

TEST(TagTest, HashDistinguishesNumAndWriter) {
  std::set<size_t> hashes;
  for (uint64_t num = 0; num < 10; ++num) {
    for (uint32_t w = 0; w < 10; ++w) {
      hashes.insert(std::hash<Tag>{}(Tag{num, ProcessId::writer(w)}));
    }
  }
  // Not a strict requirement, but collisions across a 100-element grid
  // would indicate a broken hash.
  EXPECT_GT(hashes.size(), 95u);
}

TEST(SerdeTest, RoundTripsScalars) {
  Serializer s;
  s.put_u8(0xAB);
  s.put_u16(0xBEEF);
  s.put_u32(0xDEADBEEF);
  s.put_u64(0x0123456789ABCDEFULL);
  s.put_bool(true);
  const Bytes buf = s.buffer();

  Deserializer d(buf);
  EXPECT_EQ(d.get_u8(), 0xAB);
  EXPECT_EQ(d.get_u16(), 0xBEEF);
  EXPECT_EQ(d.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(d.get_bool());
  EXPECT_TRUE(d.done());
}

TEST(SerdeTest, RoundTripsCompositeTypes) {
  Serializer s;
  s.put_tag(Tag{42, ProcessId::writer(3)});
  s.put_bytes(Bytes{1, 2, 3});
  s.put_string("hello");
  s.put_process_id(ProcessId::reader(9));
  const Bytes buf = s.buffer();

  Deserializer d(buf);
  EXPECT_EQ(d.get_tag(), (Tag{42, ProcessId::writer(3)}));
  EXPECT_EQ(d.get_bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(d.get_string(), "hello");
  EXPECT_EQ(d.get_process_id(), ProcessId::reader(9));
  EXPECT_TRUE(d.done());
}

TEST(SerdeTest, EmptyBytesRoundTrip) {
  Serializer s;
  s.put_bytes(Bytes{});
  Deserializer d(s.buffer());
  EXPECT_TRUE(d.get_bytes().empty());
  EXPECT_TRUE(d.done());
}

// A decoder over a temporary would read freed memory once the
// full-expression ends, so only lvalue buffers and views construct one.
static_assert(!std::is_constructible_v<Deserializer, Bytes&&>);
static_assert(std::is_constructible_v<Deserializer, const Bytes&>);
static_assert(std::is_constructible_v<Deserializer, BytesView>);

TEST(SerdeTest, TruncatedBufferFailsGracefully) {
  Serializer s;
  s.put_u64(12345);
  Bytes buf = s.buffer();
  buf.resize(4);  // cut the u64 in half
  Deserializer d(buf);
  EXPECT_EQ(d.get_u64(), 0u);
  EXPECT_FALSE(d.ok());
}

TEST(SerdeTest, OversizedLengthPrefixFailsGracefully) {
  // Adversarial payload: claims 2^31 bytes follow but buffer is tiny.
  Serializer s;
  s.put_u32(0x80000000u);
  s.put_u8(7);
  Deserializer d(s.buffer());
  EXPECT_TRUE(d.get_bytes().empty());
  EXPECT_FALSE(d.ok());
}

TEST(SerdeTest, VarintsAreShortestLeb128) {
  const struct {
    uint64_t value;
    Bytes wire;
  } cases[] = {
      {0, {0x00}},
      {1, {0x01}},
      {127, {0x7f}},
      {128, {0x80, 0x01}},
      {300, {0xac, 0x02}},
      {16383, {0xff, 0x7f}},
      {16384, {0x80, 0x80, 0x01}},
      {UINT32_MAX, {0xff, 0xff, 0xff, 0xff, 0x0f}},
      {1ULL << 63, {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
      {UINT64_MAX, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
  };
  for (const auto& c : cases) {
    Serializer s;
    s.put_varint(c.value);
    EXPECT_EQ(s.buffer(), c.wire) << c.value;
    EXPECT_EQ(Serializer::varint_size(c.value), c.wire.size()) << c.value;
    Deserializer d(c.wire);
    EXPECT_EQ(d.get_varint(), c.value);
    EXPECT_TRUE(d.done()) << c.value;
  }
}

TEST(SerdeTest, NonCanonicalVarintsFail) {
  const Bytes bad[] = {
      {},                  // empty
      {0x80},              // truncated
      {0x81, 0x00},        // overlong 1
      {0x80, 0x80, 0x00},  // overlong 0
      // 65 bits: the tenth byte may carry only bit 63.
      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
      {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x81, 0x00},
  };
  for (const Bytes& b : bad) {
    Deserializer d(b);
    EXPECT_EQ(d.get_varint(), 0u);
    EXPECT_FALSE(d.ok()) << b.size();
  }
  const Bytes two_pow_32{0x80, 0x80, 0x80, 0x80, 0x10};
  Deserializer too_wide(two_pow_32);
  EXPECT_EQ(too_wide.get_varint32(), 0u);
  EXPECT_FALSE(too_wide.ok());
}

TEST(SerdeTest, CompactTagAndBytesRoundTrip) {
  const Tag tags[] = {Tag{}, Tag{1, ProcessId::writer(2)},
                      Tag{UINT64_MAX, ProcessId::reader(UINT32_MAX)}};
  Serializer s;
  for (const Tag& t : tags) s.put_compact_tag(t);
  s.put_compact_bytes(Bytes{1, 2, 3});
  s.put_compact_bytes(Bytes{});
  size_t expect = Serializer::compact_bytes_size(3) + Serializer::compact_bytes_size(0);
  for (const Tag& t : tags) expect += Serializer::compact_tag_size(t);
  EXPECT_EQ(s.size(), expect);
  EXPECT_EQ(Serializer::compact_tag_size(tags[1]), 2u);

  Deserializer d(s.buffer());
  for (const Tag& t : tags) EXPECT_EQ(d.get_compact_tag(), t);
  const BytesView v = d.get_compact_bytes_view();
  EXPECT_EQ(Bytes(v.begin(), v.end()), (Bytes{1, 2, 3}));
  EXPECT_TRUE(d.get_compact_bytes_view().empty());
  EXPECT_TRUE(d.done());
}

TEST(SerdeTest, CompactTagRejectsRole3AndWideIndex) {
  const Bytes role3_wire{0x01, 0x03};
  Deserializer role3(role3_wire);
  role3.get_compact_tag();
  EXPECT_FALSE(role3.ok());
  // index 2^32, role writer: (2^32 << 2) | 1 = 2^34 + 1.
  Serializer s;
  s.put_varint(1);
  s.put_varint((1ULL << 34) | 1);
  Deserializer wide(s.buffer());
  wide.get_compact_tag();
  EXPECT_FALSE(wide.ok());
}

TEST(SerdeTest, CompactBytesLengthBeyondBufferFails) {
  const Bytes wire{0x05, 1, 2, 3, 4};
  Deserializer d(wire);
  EXPECT_TRUE(d.get_compact_bytes_view().empty());
  EXPECT_FALSE(d.ok());
}

TEST(SerdeTest, InvalidRoleByteFailsGracefully) {
  Serializer s;
  s.put_u8(99);  // not a valid Role
  s.put_u32(0);
  Deserializer d(s.buffer());
  d.get_process_id();
  EXPECT_FALSE(d.ok());
}

TEST(SerdeTest, ReadPastEndFailsAndStaysFailed) {
  Deserializer d(nullptr, 0);
  EXPECT_EQ(d.get_u32(), 0u);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.get_u8(), 0u);  // still failed, no UB
  EXPECT_FALSE(d.done());
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.uniform_range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= (v == 5);
    saw_hi |= (v == 8);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, ExponentialMeanIsApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.fork();
  // The child should not replay the parent's stream.
  Rng parent2(23);
  parent2.fork();
  EXPECT_EQ(child.next_u64(), [] {
    Rng p(23);
    Rng c = p.fork();
    return c.next_u64();
  }());
}

TEST(StatsTest, OnlineStatsBasics) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, OnlineStatsEmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StatsTest, SamplesPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.01);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(StatsTest, SamplesSingleValue) {
  Samples s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.median(), 42.0);
  EXPECT_DOUBLE_EQ(s.p99(), 42.0);
}

TEST(StatsTest, TextTableRendersAligned) {
  TextTable t({"proto", "rounds"});
  t.add_row({"BSR", "1"});
  t.add_row({"BSR-2R", "2"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| proto "), std::string::npos);
  EXPECT_NE(out.find("| BSR-2R | 2"), std::string::npos);
}

TEST(Fnv1aTest, KnownValueAndSensitivity) {
  const uint64_t h1 = fnv1a64("abc", 3);
  const uint64_t h2 = fnv1a64("abd", 3);
  EXPECT_NE(h1, h2);
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ULL);
}

}  // namespace
}  // namespace bftreg
