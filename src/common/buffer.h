// Refcounted immutable payload buffers.
//
// The zero-copy delivery path hands message handlers *views* into the
// transport's receive buffers instead of per-message byte vectors: the TCP
// data plane parses frames in place inside the refcounted chunk its loop
// shard reads into (or, for a frame cut by a read, inside that frame's own
// buffer), and a delivered `Payload` aliases it (shared_ptr aliasing),
// keeping it alive exactly as long as any handler still holds the
// envelope. In-memory transports construct a Payload from the sender's
// `Bytes` by moving the vector into a shared control block -- the data
// never moves, so a pointer captured before send() still identifies the
// delivered bytes (asserted by tests/socknet_test.cpp).
#pragma once

#include <algorithm>
#include <memory>
#include <utility>

#include "common/types.h"

namespace bftreg {

/// Immutable byte payload: a (refcount, view) pair. Cheap to copy (one
/// shared_ptr bump), never copies the underlying data. Implicitly converts
/// from `Bytes` (taking ownership) and to `BytesView` (for parsers).
class Payload {
 public:
  Payload() = default;

  /// Takes ownership of `bytes` without copying the data: the vector is
  /// moved into a shared control block, so `bytes.data()` before the call
  /// and `payload.data()` after are the same pointer.
  // NOLINTNEXTLINE(google-explicit-constructor): send paths pass Bytes.
  Payload(Bytes bytes) {
    auto owned = std::make_shared<const Bytes>(std::move(bytes));
    view_ = BytesView(owned->data(), owned->size());
    owner_ = std::move(owned);
  }

  /// Aliasing view: `view` must point into storage kept alive by `owner`.
  Payload(std::shared_ptr<const void> owner, BytesView view)
      : owner_(std::move(owner)), view_(view) {}

  const uint8_t* data() const { return view_.data(); }
  size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const uint8_t* begin() const { return view_.data(); }
  const uint8_t* end() const { return view_.data() + view_.size(); }
  uint8_t operator[](size_t i) const { return view_[i]; }

  BytesView view() const { return view_; }
  // NOLINTNEXTLINE(google-explicit-constructor): parsers take BytesView.
  operator BytesView() const { return view_; }

  /// Materializes an owned copy (introspection/test helper; the hot paths
  /// parse through the view instead).
  Bytes to_bytes() const { return Bytes(begin(), end()); }

  /// The owning buffer's identity -- distinct payloads parsed out of one
  /// receive chunk share it. Test/diagnostic hook.
  const void* owner() const { return owner_.get(); }

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.view_.size() == b.view_.size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Payload& a, const Bytes& b) {
    return a.view_.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const Bytes& a, const Payload& b) { return b == a; }

 private:
  std::shared_ptr<const void> owner_;
  BytesView view_;
};

}  // namespace bftreg
