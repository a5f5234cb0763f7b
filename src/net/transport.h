// Transport and process interfaces.
//
// Protocol code (writers, readers, servers, broadcast) is written once as
// event-driven state machines against `Transport` + `IProcess`, then run
// either deterministically under the discrete-event `sim::Simulator` or in
// real time under `runtime::ThreadNetwork` (in memory) or
// `socknet::TcpNetwork` (kernel sockets). The two real-time transports
// share one executor (runtime/executor.h). This is the central design
// decision of the repo (DESIGN.md §6.1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>

#include "common/types.h"
#include "net/envelope.h"
#include "net/metrics.h"

namespace bftreg::net {

/// Execution knobs of the real-time transports. These are purely
/// operational -- protocol semantics never depend on them -- and they are
/// the one place transport sizing is spelled out: socknet::TcpConfig embeds
/// one, so a deployment tunes "how many event-loop shards, how many
/// handler threads, how much outbound buffering" in a single struct instead
/// of a grab-bag of per-transport fields. runtime::ThreadNetwork runs on
/// the resolved defaults; SystemConfig::Builder validates and carries a
/// copy. Receive buffering has no knob: the TCP transport reads into one
/// chunk per event-loop shard, so it grows with loop_shards, not with
/// connections.
struct TransportOptions {
  /// Event-loop shards (runtime::EventLoop): every connection, listener,
  /// and timer is owned by exactly one shard's epoll set, so the I/O
  /// thread count is fixed at this value no matter how many endpoints are
  /// registered. 0 = auto (hardware concurrency clamped to [1, 4]).
  size_t loop_shards{0};
  /// Handler (mailbox) threads: delivery contexts of all endpoints are
  /// multiplexed onto this many MPSC-ring consumers (runtime/mailbox.h).
  /// The per-(process, delivery-shard) serialization guarantee of
  /// IProcess is preserved -- a context is pinned to one consumer -- but
  /// the thread count no longer grows with the endpoint count.
  /// 0 = auto (hardware concurrency clamped to [2, 8]).
  size_t mailbox_shards{0};
  /// Per-destination outbound queue cap in bytes (headers + payloads),
  /// counting both frames not yet picked up by the event loop and frames
  /// waiting on socket writability. A send() that would push a non-empty
  /// queue past the cap is shed and counted in metrics().messages_dropped;
  /// a single frame larger than the cap is still accepted so jumbo
  /// payloads cannot deadlock themselves.
  size_t max_outbox_bytes{32 * 1024 * 1024};

  /// The auto defaults resolved against the actual hardware; every
  /// transport uses this so tools and tests agree on the effective values.
  TransportOptions resolved() const {
    TransportOptions out = *this;
    // Hardware query, not a thread spawn: bftreg-lint: allow(raw-thread)
    const size_t hw = std::thread::hardware_concurrency();
    if (out.loop_shards == 0) out.loop_shards = std::clamp<size_t>(hw, 1, 4);
    if (out.mailbox_shards == 0) {
      out.mailbox_shards = std::clamp<size_t>(hw, 2, 8);
    }
    return out;
  }
};

/// A participant in the protocol. Handlers are always invoked in the
/// process's execution context. By default that context is singular
/// (simulator event, or one delivery context of the real-time executor),
/// so handlers never run concurrently for the same process. A process may
/// opt into parallel delivery by overriding delivery_shards()/shard_of():
/// the real-time transports then give it one delivery context per shard,
/// spread over their pooled mailbox consumers, and the serialization
/// guarantee narrows to *per shard* -- two envelopes mapping to the same
/// shard are still handled one at a time and in push order, but handlers
/// for different shards of the same process may run concurrently. A
/// consumer serves several contexts, so a handler must never block waiting
/// on another context. The discrete-event simulator ignores sharding (it
/// is single-threaded, so the default guarantee holds there regardless).
class IProcess {
 public:
  virtual ~IProcess() = default;

  /// Called once before any message is delivered. Runs on shard 0.
  virtual void on_start() {}

  /// An authenticated message has arrived. `env.payload` is adversarial
  /// input if the sender is Byzantine; implementations must parse defensively.
  virtual void on_message(const Envelope& env) = 0;

  /// Number of independent delivery shards this process wants. Read once
  /// by the transport at registration; must be >= 1 and constant for the
  /// process's lifetime.
  virtual uint32_t delivery_shards() const { return 1; }

  /// Maps an inbound envelope to a shard in [0, delivery_shards()).
  /// Called on the *sender's* (or socket reader's) thread, possibly
  /// concurrently with handlers and with itself -- implementations must be
  /// pure functions of the envelope (typically a hash of a routing field
  /// peeked from the payload) and touch no mutable process state.
  virtual uint32_t shard_of(const Envelope& env) const {
    (void)env;
    return 0;
  }

  /// Mailbox batch brackets. Transports that drain deliveries in batches
  /// (the real-time executor's mailbox consumers) call
  /// on_batch_begin(shard) in `shard`'s delivery context before a run of
  /// consecutive on_message calls for this process, and on_batch_end(shard)
  /// after the run -- both under exactly the same serialization guarantee
  /// as on_message itself. A begin is paired with an end on the same
  /// thread, unless the process is crashed or replaced in between (the
  /// bracket is then abandoned); batches for different shards may be open
  /// concurrently. Default: no-op, and transports that deliver one message
  /// at a time (the simulator) never call either -- implementations must
  /// not depend on the brackets for correctness, only use them to amortize.
  /// No process in src/ overrides them.
  virtual void on_batch_begin(uint32_t shard) { (void)shard; }
  virtual void on_batch_end(uint32_t shard) { (void)shard; }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends payload over the reliable authenticated channel from->to.
  /// Never blocks. Delivery order is arbitrary (asynchronous model).
  void send(const ProcessId& from, const ProcessId& to, Bytes payload) {
    send_payload(from, to, Payload(std::move(payload)));
  }

  /// Zero-copy variant of send(): the payload is a refcounted view, so a
  /// sender fanning the same bytes out to n destinations (or re-sending on
  /// retry) shares one buffer across all of them instead of copying per
  /// message. Transports must not mutate the bytes.
  virtual void send_payload(const ProcessId& from, const ProcessId& to,
                            Payload payload) = 0;

  /// Current transport time (virtual in the simulator, wall clock in the
  /// real-time transports), in nanoseconds.
  virtual TimeNs now() const = 0;

  /// Runs `fn` in `pid`'s execution context (as a zero-delay event in the
  /// simulator; in its first delivery context in the real-time
  /// transports). Used to inject client operation starts without racing
  /// message handlers.
  virtual void post(const ProcessId& pid, std::function<void()> fn) = 0;

  /// Runs `fn` in `pid`'s execution context no earlier than `delta` ns from
  /// now (virtual ns in the simulator, wall ns in the runtimes). The timer
  /// hook behind client deadlines and retries (registers::OpMux); like every
  /// handler, the closure never runs concurrently with the process's other
  /// handlers. Timers pending at shutdown are dropped, and a crashed
  /// process's timers do not fire.
  virtual void post_after(const ProcessId& pid, TimeNs delta,
                          std::function<void()> fn) = 0;

  virtual NetworkMetrics& metrics() = 0;
};

}  // namespace bftreg::net
