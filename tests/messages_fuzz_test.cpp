// Seeded, structure-aware mutation fuzzer for RegisterMessage::parse.
//
// Every server parses bytes from up to f Byzantine peers and from any
// client, so parse() must survive any input. The fuzzer starts from each
// message type's encoding (no field, every field, and random mixes) and
// mutates on the compact layout's field boundaries (messages.h): it flips
// presence bits, rewrites varint bytes, lies in counts and lengths (the
// extremes, off-by-one, and values whose product with an entry size wraps
// 64 bits), writes overlong and over-wide varints, truncates at every byte
// and appends bytes. Random rounds then stack several such mutations.
//
// Properties: nothing crashes or throws, and every accepted mutant is
// canonical, encode(parse(b)) == b. The seed and the budget are fixed, so
// every run does the same work; run it under the asan-ubsan preset with
// `ctest --preset asan-ubsan -L fuzz`.
#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "message_samples.h"
#include "registers/messages.h"

namespace bftreg::registers {
namespace {

constexpr int kRandomMasksPerType = 4;
constexpr int kRandomRoundsPerInput = 2000;
constexpr size_t kPrefixBytes = 14;  // type, op id, object, presence

/// One varint of a valid encoding: where it sits and what it says.
struct Varint {
  size_t pos;
  size_t len;
  uint64_t value;
};

/// Walks a canonical encoding along the layout and lists its varints.
std::vector<Varint> varints_of(const Bytes& b) {
  std::vector<Varint> out;
  size_t pos = kPrefixBytes;
  auto take = [&] {
    Deserializer d(b.data() + pos, b.size() - pos);
    const uint64_t v = d.get_varint();
    const size_t len = b.size() - pos - d.remaining();
    out.push_back(Varint{pos, len, v});
    pos += len;
    return v;
  };
  auto tag = [&] {
    take();
    take();
  };
  const uint8_t presence = b[kPrefixBytes - 1];
  if (presence & 0x01) tag();
  if (presence & 0x02) pos += take();
  if (presence & 0x04) {
    for (uint64_t n = take(); n > 0; --n) {
      tag();
      pos += take();
    }
  }
  if (presence & 0x08) {
    for (uint64_t n = take(); n > 0; --n) tag();
  }
  if (presence & 0x10) {
    for (uint64_t n = take(); n > 0; --n) take();
  }
  return out;
}

Bytes leb128(uint64_t v) {
  Serializer s;
  s.put_varint(v);
  return s.take();
}

/// `v` with one redundant zero group: decodes to v, but is not shortest.
Bytes overlong(uint64_t v) {
  Bytes b = leb128(v);
  b.back() |= 0x80;
  b.push_back(0x00);
  return b;
}

Bytes replace(const Bytes& b, size_t pos, size_t len, const Bytes& with) {
  Bytes out(b.begin(), b.begin() + pos);
  out.insert(out.end(), with.begin(), with.end());
  out.insert(out.end(), b.begin() + pos + len, b.end());
  return out;
}

/// The encodings a varint field is rewritten to: lies about its value,
/// and malformed forms.
std::vector<Bytes> varint_rewrites(const Varint& v, size_t remaining) {
  std::vector<Bytes> out;
  const uint64_t lies[] = {0, 1, v.value - 1, v.value + 1, 127, 128,
                           uint64_t{1} << 30, UINT32_MAX, uint64_t{1} << 32,
                           uint64_t{1} << 34, uint64_t{1} << 63, UINT64_MAX,
                           0x5555555555555556ULL, 0xaaaaaaaaaaaaaaabULL,
                           remaining, remaining + 1};
  for (const uint64_t lie : lies) out.push_back(leb128(lie));
  out.push_back(overlong(v.value));
  out.push_back(Bytes{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02});
  out.push_back(Bytes{0x80});  // continuation with nothing after it
  out.push_back(Bytes{});      // the field vanishes
  return out;
}

class ParseFuzzer {
 public:
  /// Parses `b` and checks both properties. Failures are reported for the
  /// first few inputs only, with their bytes.
  void check(const Bytes& b) {
    ++inputs_;
    std::optional<RegisterMessage> m;
    try {
      m = RegisterMessage::parse(b);
    } catch (const std::exception& e) {
      report(b, std::string("parse threw: ") + e.what());
      return;
    }
    if (!m) return;
    ++accepted_;
    if (m->encode() != b) report(b, "accepted a non-canonical encoding");
  }

  /// Every deterministic mutation of one valid encoding (varints_of walks
  /// only valid ones).
  void sweep(const Bytes& base) {
    check(base);
    for (int bit = 0; bit < 8; ++bit) {
      Bytes b = base;
      b[kPrefixBytes - 1] ^= static_cast<uint8_t>(1u << bit);
      check(b);
    }
    for (size_t cut = 0; cut < base.size(); ++cut) {
      check(Bytes(base.begin(), base.begin() + cut));
    }
    for (const Bytes& tail : {Bytes{0x00}, Bytes{0x01}, Bytes{0x80}, Bytes{0xff},
                              Bytes{0x00, 0x00, 0x00}, base}) {
      check(replace(base, base.size(), 0, tail));
    }
    for (const Varint& v : varints_of(base)) {
      const size_t remaining = base.size() - v.pos - v.len;
      for (const Bytes& w : varint_rewrites(v, remaining)) {
        check(replace(base, v.pos, v.len, w));
      }
      for (size_t i = 0; i < v.len; ++i) {
        for (uint8_t byte : {0x00, 0x01, 0x7f, 0x80, 0xff}) {
          Bytes b = base;
          b[v.pos + i] = byte;
          check(b);
        }
      }
    }
  }

  /// Stacks 1-4 random structured mutations, kRandomRoundsPerInput times.
  void random_rounds(const Bytes& base, Rng& rng) {
    for (int round = 0; round < kRandomRoundsPerInput; ++round) {
      Bytes b = base;
      const uint64_t steps = 1 + rng.uniform(4);
      for (uint64_t s = 0; s < steps; ++s) b = mutate(b, rng);
      check(b);
    }
  }

  uint64_t inputs() const { return inputs_; }
  uint64_t accepted() const { return accepted_; }

 private:
  static Bytes mutate(const Bytes& b, Rng& rng) {
    if (b.empty()) return Bytes{static_cast<uint8_t>(rng.uniform(256))};
    switch (rng.uniform(6)) {
      case 0: {  // presence bit (or whatever byte 13 has become)
        Bytes out = b;
        if (out.size() >= kPrefixBytes) {
          out[kPrefixBytes - 1] ^= static_cast<uint8_t>(1u << rng.uniform(8));
        }
        return out;
      }
      case 1: {  // a varint rewritten, when b still walks as valid
        if (!RegisterMessage::parse(b)) break;
        const std::vector<Varint> vs = varints_of(b);
        if (vs.empty()) break;
        const Varint& v = vs[rng.uniform(vs.size())];
        const std::vector<Bytes> ws = varint_rewrites(v, b.size() - v.pos - v.len);
        return replace(b, v.pos, v.len, ws[rng.uniform(ws.size())]);
      }
      case 2:  // truncate
        return Bytes(b.begin(), b.begin() + rng.uniform(b.size()));
      case 3: {  // append
        Bytes out = b;
        for (uint64_t n = 1 + rng.uniform(4); n > 0; --n) {
          out.push_back(static_cast<uint8_t>(rng.uniform(256)));
        }
        return out;
      }
      case 4: {  // one byte rewritten
        Bytes out = b;
        out[rng.uniform(out.size())] = static_cast<uint8_t>(rng.uniform(256));
        return out;
      }
      default:  // one byte deleted: every later field shifts
        return replace(b, rng.uniform(b.size()), 1, {});
    }
    // No valid varint to rewrite: flip bits in a random byte instead.
    Bytes out = b;
    out[rng.uniform(out.size())] ^= static_cast<uint8_t>(1 + rng.uniform(255));
    return out;
  }

  void report(const Bytes& b, const std::string& what) {
    if (++failures_ > 5) return;
    std::string hex;
    char buf[4];
    for (const uint8_t c : b) {
      std::snprintf(buf, sizeof(buf), "%02x", c);
      hex += buf;
    }
    ADD_FAILURE() << what << ": " << hex;
  }

  uint64_t inputs_{0};
  uint64_t accepted_{0};
  uint64_t failures_{0};
};

/// The seed inputs: every type with no field, with every field, and with
/// random mixes.
std::vector<Bytes> seed_inputs(Rng& rng) {
  std::vector<Bytes> out;
  for (uint8_t t = 1; t <= kLastMsgType; ++t) {
    const auto type = static_cast<MsgType>(t);
    out.push_back(sample_message(type, 0).encode());
    out.push_back(sample_message(type, kAllFields).encode());
    for (int i = 0; i < kRandomMasksPerType; ++i) {
      const auto fields = static_cast<uint8_t>(rng.uniform(kAllFields + 1));
      out.push_back(sample_message(type, fields).encode());
    }
  }
  return out;
}

TEST(MessagesFuzz, StructuredMutationsNeverCrashAndStayCanonical) {
  Rng rng(20251019);
  ParseFuzzer fuzzer;
  for (const Bytes& base : seed_inputs(rng)) {
    fuzzer.sweep(base);
    fuzzer.random_rounds(base, rng);
  }
  // The budget is fixed; these pin that the run did its work and reached
  // both verdicts.
  EXPECT_GT(fuzzer.inputs(), 100'000u);
  EXPECT_GT(fuzzer.accepted(), 1'000u);
  EXPECT_LT(fuzzer.accepted(), fuzzer.inputs());
}

TEST(MessagesFuzz, RegressionInputs) {
  // A history count whose product with the 3-byte entry minimum wraps 64
  // bits to 2: a multiplied bound passed it and reserve() threw.
  Bytes wrap(kPrefixBytes, 0);
  wrap[0] = static_cast<uint8_t>(MsgType::kHistoryResp);
  wrap[kPrefixBytes - 1] = 0x04;
  const Bytes count = leb128(0x5555555555555556ULL);
  wrap.insert(wrap.end(), count.begin(), count.end());
  wrap.insert(wrap.end(), {0, 0, 0});
  ParseFuzzer fuzzer;
  for (size_t cut = 0; cut <= wrap.size(); ++cut) {
    fuzzer.check(Bytes(wrap.begin(), wrap.begin() + cut));
  }
  EXPECT_EQ(fuzzer.accepted(), 0u);
}

}  // namespace
}  // namespace bftreg::registers
