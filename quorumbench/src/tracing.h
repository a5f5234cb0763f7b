// Per-layer tracing from outside the program.
//
// Three interposers time calls into each layer's public functions:
//   * TracingTransport forwards net::Transport; every client and server is
//     built with it, so each send_payload is timed and stamped for transit
//     matching (socknet layer).
//   * TracedClient forwards net::IProcess around a RegisterClient: reply
//     handling time, replies per op, replies that arrived before the op
//     completed (registers.client layer).
//   * TracedServer forwards net::IProcess around a server, including the
//     delivery-shard and batch-bracket hooks: handler time by message type,
//     batch-close time, busy time (registers.server layer).
// With tracing off, each interposer costs one relaxed load and a virtual
// call. Nothing under src/ knows they exist.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "net/transport.h"
#include "percentiles.h"

namespace bftreg::qb {

inline int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The fixed prefix of every register message (registers/messages.cpp):
/// type u8 at offset 0, op id u64 little-endian at offset 1.
struct WirePeek {
  bool ok{false};
  uint8_t type{0};
  uint64_t op_id{0};
};
WirePeek peek_wire(BytesView payload);

/// Matches each send to its delivery by (from, to, message type, op id) and
/// records the transit time: sender's send_payload return to the receiver's
/// on_message start. That interval holds the outbox wait, sendmsg, frame
/// parse, MAC check and mailbox wait. Either side may come first (the
/// receiver can run before send_payload returns); the later one records
/// the interval, clamped at zero. Thread-safe.
class TransitMatcher {
 public:
  static uint64_t key(const ProcessId& from, const ProcessId& to,
                      const WirePeek& w);

  void on_send(uint64_t key, uint8_t type, int64_t t_ns) {
    match(key, type, t_ns, /*is_send=*/true);
  }
  void on_receive(uint64_t key, uint8_t type, int64_t t_ns) {
    match(key, type, t_ns, /*is_send=*/false);
  }

  /// Transit of messages of one type (indexed by the wire type byte).
  const LogHist& by_type(uint8_t type) const { return by_type_[type % 32]; }
  /// Transit of every matched message.
  const LogHist& all() const { return all_; }

 private:
  struct Half {
    int64_t t_ns;
    bool is_send;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, Half> open;
  };
  void match(uint64_t key, uint8_t type, int64_t t_ns, bool is_send);

  std::array<Shard, 64> shards_;
  std::array<LogHist, 32> by_type_;
  LogHist all_;
};

/// Shared tracing state: the on/off switch and the transport-level series.
class Tracer {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set(bool on) { on_.store(on, std::memory_order_relaxed); }

  TransitMatcher transit;
  LogHist send_ns;

  /// Keeps every 16th traced payload size, up to kSizeSlots of them: the
  /// payload-size mix the crypto layer is timed on.
  void sample_size(size_t bytes);
  std::vector<size_t> sizes() const;

 private:
  static constexpr size_t kSizeSlots = 4096;
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> size_seen_{0};
  std::array<std::atomic<uint32_t>, kSizeSlots> size_slots_{};
};

class TracingTransport final : public net::Transport {
 public:
  TracingTransport(net::Transport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void send_payload(const ProcessId& from, const ProcessId& to,
                    Payload payload) override;
  TimeNs now() const override { return inner_->now(); }
  void post(const ProcessId& pid, std::function<void()> fn) override {
    inner_->post(pid, std::move(fn));
  }
  void post_after(const ProcessId& pid, TimeNs delta,
                  std::function<void()> fn) override {
    inner_->post_after(pid, delta, std::move(fn));
  }
  net::NetworkMetrics& metrics() override { return inner_->metrics(); }

  /// While set on this thread, the op id of every traced send is stored
  /// here: TracedClient learns the wire id of the op it starts this way.
  static thread_local uint64_t* capture_op_id;

 private:
  net::Transport* const inner_;
  Tracer* const tracer_;
};

enum OpKind : size_t { kRead = 0, kWrite = 1 };

class TracedClient final : public net::IProcess {
 public:
  TracedClient(net::IProcess* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void on_start() override { inner_->on_start(); }
  void on_message(const net::Envelope& env) override;

  /// The slot the next start_traced call will return, so an op's callback
  /// can name it before the op starts. Client context only.
  uint32_t next_slot() const { return static_cast<uint32_t>(done_.size()); }

  /// Starts one operation through `start` (which calls read or write on
  /// the wrapped client), timing the call. Client context; tracing on.
  template <typename Fn>
  uint32_t start_traced(OpKind kind, Fn&& start) {
    uint64_t wire_id = 0;
    TracingTransport::capture_op_id = &wire_id;
    const int64_t t0 = steady_ns();
    start();
    invoke_ns[kind].record(static_cast<uint64_t>(steady_ns() - t0));
    TracingTransport::capture_op_id = nullptr;
    const uint32_t slot = next_slot();
    done_.push_back(false);
    if (wire_id != 0) slot_of_wire_[wire_id] = slot;
    return slot;
  }
  /// The op in `slot` completed; later replies to it are wasted work.
  void mark_done(uint32_t slot) { done_[slot] = true; }

  std::array<LogHist, 2> post_wait_ns;  // by OpKind
  std::array<LogHist, 2> invoke_ns;     // by OpKind
  std::array<LogHist, 2> reply_ns;      // by the kind of op replied to
  std::atomic<uint64_t> replies{0};
  std::atomic<uint64_t> useful_replies{0};

 private:
  net::IProcess* const inner_;
  Tracer* const tracer_;
  // Client context only.
  std::vector<bool> done_;
  std::unordered_map<uint64_t, uint32_t> slot_of_wire_;
};

class TracedServer final : public net::IProcess {
 public:
  TracedServer(net::IProcess* inner, Tracer* tracer)
      : inner_(inner),
        tracer_(tracer),
        batch_msgs_(inner->delivery_shards(), 0) {}

  void on_start() override { inner_->on_start(); }
  void on_message(const net::Envelope& env) override;
  uint32_t delivery_shards() const override {
    return inner_->delivery_shards();
  }
  uint32_t shard_of(const net::Envelope& env) const override {
    return inner_->shard_of(env);
  }
  void on_batch_begin(uint32_t shard) override;
  void on_batch_end(uint32_t shard) override;

  LogHist query_ns;      // QUERY-TAG, QUERY-DATA
  LogHist put_ns;        // PUT-DATA
  LogHist batch_end_ns;  // on_batch_end: deferred publishes and replies
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> batched_msgs{0};

 private:
  net::IProcess* const inner_;
  Tracer* const tracer_;
  std::vector<uint64_t> batch_msgs_;  // per shard, that shard's thread only
};

}  // namespace bftreg::qb
