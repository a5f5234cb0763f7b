// Bounds-checked binary serialization.
//
// Every message that crosses the (simulated) network is flattened to bytes
// through `Serializer` and parsed back through `Deserializer`. Parsing must
// survive arbitrary adversarial payloads -- a Byzantine server may send any
// byte string -- so `Deserializer` never reads out of bounds and reports
// failure through `ok()` instead of crashing.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.h"

namespace bftreg {

/// Append-only little-endian encoder.
class Serializer {
 public:
  Serializer() = default;

  void put_u8(uint8_t v) { buf_.push_back(v); }

  void put_u16(uint16_t v) { put_uint(v, 2); }
  void put_u32(uint32_t v) { put_uint(v, 4); }
  void put_u64(uint64_t v) { put_uint(v, 8); }

  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  /// Grows the buffer's capacity by at least `additional` bytes. Callers
  /// that know a message's size (messages.cpp computes it exactly) reserve
  /// once up front so large coded elements append without realloc-copies.
  void reserve(size_t additional) { buf_.reserve(buf_.size() + additional); }

  /// Length-prefixed (u32) byte string.
  void put_bytes(const Bytes& b) {
    reserve(4 + b.size());
    put_u32(static_cast<uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Same wire format from a borrowed view (zero-copy encode paths: the
  /// register server serializes history straight out of its value slab).
  void put_bytes(BytesView b) {
    reserve(4 + b.size());
    put_u32(static_cast<uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  void put_string(std::string_view s) {
    reserve(4 + s.size());
    put_u32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void put_process_id(const ProcessId& id) {
    put_u8(static_cast<uint8_t>(id.role));
    put_u32(id.index);
  }

  void put_tag(const Tag& t) {
    put_u64(t.num);
    put_process_id(t.writer);
  }

  // --- compact (variable-width) encodings ---------------------------------
  //
  // Shortest-form unsigned LEB128: seven value bits per byte, low group
  // first, the high bit set on every byte but the last. Values below 128
  // take one byte, and a u64 at most ten.

  void put_varint(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<uint8_t>(v | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<uint8_t>(v));
  }

  /// Compact tag: varint(num), then varint(writer index << 2 | role).
  void put_compact_tag(const Tag& t) {
    put_varint(t.num);
    put_varint(compact_writer(t.writer));
  }

  /// Varint length, then the bytes.
  void put_compact_bytes(BytesView b) {
    put_varint(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  static size_t varint_size(uint64_t v) {
    size_t n = 1;
    while (v >= 0x80) {
      v >>= 7;
      ++n;
    }
    return n;
  }
  static size_t compact_tag_size(const Tag& t) {
    return varint_size(t.num) + varint_size(compact_writer(t.writer));
  }
  static size_t compact_bytes_size(size_t len) {
    return varint_size(len) + len;
  }

  size_t size() const { return buf_.size(); }

  /// Moves the accumulated buffer out; the serializer is reset. Discarding
  /// the return value would silently drop the encoded message.
  [[nodiscard]] Bytes take() { return std::move(buf_); }

  const Bytes& buffer() const { return buf_; }

 private:
  static uint64_t compact_writer(const ProcessId& id) {
    return (static_cast<uint64_t>(id.index) << 2) |
           static_cast<uint64_t>(id.role);
  }

  void put_uint(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

/// Bounds-checked little-endian decoder. After any failed read, `ok()` is
/// false and all subsequent reads return zero values; callers check `ok()`
/// once at the end of parsing a message.
class Deserializer {
 public:
  explicit Deserializer(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  /// A temporary would die at the end of the full-expression and leave the
  /// decoder pointing into freed memory: bind a named buffer instead.
  explicit Deserializer(Bytes&&) = delete;
  explicit Deserializer(BytesView data) : data_(data.data()), size_(data.size()) {}
  Deserializer(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Checking ok()/done() is the whole point of the bounds-checked decoder:
  /// a call whose result is ignored is always a bug, hence [[nodiscard]].
  [[nodiscard]] bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

  /// True iff parsing succeeded AND consumed the whole buffer.
  [[nodiscard]] bool done() const { return ok_ && pos_ == size_; }

  uint8_t get_u8() { return static_cast<uint8_t>(get_uint(1)); }
  uint16_t get_u16() { return static_cast<uint16_t>(get_uint(2)); }
  uint32_t get_u32() { return static_cast<uint32_t>(get_uint(4)); }
  uint64_t get_u64() { return get_uint(8); }

  bool get_bool() { return get_u8() != 0; }

  Bytes get_bytes() {
    const BytesView v = get_bytes_view();
    return Bytes(v.begin(), v.end());
  }

  /// Zero-copy variant of get_bytes: a view into the message buffer, valid
  /// only while that buffer lives. Large-payload paths (coded elements,
  /// history entries) bounds-check and consume the bytes through this view
  /// and copy at most once, directly into their destination.
  BytesView get_bytes_view() {
    uint32_t len = get_u32();
    if (!ok_ || remaining() < len) {
      ok_ = false;
      return {};
    }
    const BytesView out(data_ + pos_, len);
    pos_ += len;
    return out;
  }

  std::string get_string() {
    const BytesView v = get_bytes_view();
    return std::string(v.begin(), v.end());
  }

  ProcessId get_process_id() {
    uint8_t role = get_u8();
    uint32_t index = get_u32();
    if (role > static_cast<uint8_t>(Role::kReader)) {
      ok_ = false;
      return {};
    }
    return ProcessId{static_cast<Role>(role), index};
  }

  Tag get_tag() {
    Tag t;
    t.num = get_u64();
    t.writer = get_process_id();
    return t;
  }

  // --- compact (variable-width) encodings ---------------------------------

  /// Shortest-form LEB128 (Serializer::put_varint). Fails on truncation, on
  /// an overlong encoding (a final group byte of 0 after the first), and on
  /// a value wider than 64 bits, so every value has exactly one encoding.
  uint64_t get_varint() {
    uint64_t v = 0;
    for (int shift = 0; ok_ && pos_ < size_; shift += 7) {
      const uint8_t b = data_[pos_++];
      // The tenth byte holds bit 63 only: anything else overflows.
      if (shift == 63 && b > 1) break;
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        if (b == 0 && shift > 0) break;  // overlong
        return v;
      }
    }
    ok_ = false;
    return 0;
  }

  /// A varint that must fit a u32 field (object ids).
  uint32_t get_varint32() {
    const uint64_t v = get_varint();
    if (v > UINT32_MAX) {
      ok_ = false;
      return 0;
    }
    return static_cast<uint32_t>(v);
  }

  /// Compact tag (Serializer::put_compact_tag). Role 3 and writer indices
  /// past u32 fail.
  Tag get_compact_tag() {
    Tag t;
    t.num = get_varint();
    const uint64_t writer = get_varint();
    const uint64_t role = writer & 3;
    const uint64_t index = writer >> 2;
    if (!ok_ || role > static_cast<uint8_t>(Role::kReader) ||
        index > UINT32_MAX) {
      ok_ = false;
      return {};
    }
    t.writer = ProcessId{static_cast<Role>(role), static_cast<uint32_t>(index)};
    return t;
  }

  /// Compact bytes (Serializer::put_compact_bytes) as a zero-copy view, like
  /// get_bytes_view.
  BytesView get_compact_bytes_view() {
    const uint64_t len = get_varint();
    if (!ok_ || remaining() < len) {
      ok_ = false;
      return {};
    }
    const BytesView out(data_ + pos_, len);
    pos_ += len;
    return out;
  }

 private:
  uint64_t get_uint(int bytes) {
    if (!ok_ || remaining() < static_cast<size_t>(bytes)) {
      ok_ = false;
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += bytes;
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_{0};
  bool ok_{true};
};

}  // namespace bftreg
