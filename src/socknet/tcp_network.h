// TCP loopback transport: the protocols over a real network stack.
//
// Third implementation of net::Transport (after the deterministic
// simulator and the in-memory thread runtime): processes exchange
// length-prefixed, MAC-sealed frames through the kernel. Nothing
// protocol-level changes -- the same state machines run unmodified --
// which is the point: the paper's algorithms assume only reliable
// authenticated point-to-point channels, and TCP + the MAC layer provides
// exactly that.
//
// Thread model (rebuilt for client-fleet scale; numbers in docs/PERF.md):
// the transport runs on runtime::Executor (runtime/executor.h), the same
// executor as the in-memory ThreadNetwork. Every socket lives on one of N
// event-loop shards and every handler context on one of M pooled mailbox
// consumers, so the thread count is N + M regardless of how many endpoints
// are registered: a client fleet of thousands costs no thread per client.
// The executor also gives it the live-restart surface (mark_crashed /
// quiesce / replace_process / revive).
//
//   Outbound  send() seals a 22-byte header, appends (header, payload) to a
//             bounded per-destination queue and schedules a flush on the
//             owning shard -- no syscall, no payload concatenation, no
//             blocking I/O under a lock. The shard drains whole queues with
//             sendmsg + iovec coalescing; a short write arms EPOLLOUT and
//             the next readiness wake resumes mid-frame (wr_offset), so no
//             thread ever parks in a socket call. A full queue sheds the
//             frame (metrics().messages_dropped); client deadlines
//             (registers::OpMux) retransmit.
//
//   Inbound   every connection of a loop shard reads into that shard's one
//             256 KiB receive chunk; frames are parsed in place and
//             delivered as payload *views* aliasing it (common/buffer.h),
//             with zero payload copies, straight into their delivery
//             context's lock-free MPSC ring (runtime/mailbox.h). A frame
//             cut by a read moves to its connection: fewer than 4 bytes
//             stay as a length prefix, more get a buffer sized to the frame
//             that later reads fill directly. So receive memory grows with
//             loop shards, not with connections. Chunks and frame buffers
//             come from a per-shard pool and return to it, under its mutex,
//             when their last view dies.
//
//   Duplex    connections are full-duplex: the first authenticated frame
//             on an accepted connection names the peer, and the endpoint
//             *adopts* it as the outbound route to that peer. Replies to a
//             dialed-in client flow back over the client's own connection,
//             so a server holding F clients costs F sockets, not 2F, and
//             clients need no listening socket at all (add_process with
//             listen=false).
//
// Scope: single-host loopback (the offline build environment has no
// external network). The wire format is position-independent, so pointing
// the address book at remote hosts is a config change, not a code change.
#pragma once

#include <sys/types.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/sync.h"
#include "common/types.h"
#include "crypto/auth.h"
#include "net/transport.h"
#include "runtime/executor.h"

namespace bftreg::socknet {

struct TcpConfig {
  uint64_t master_secret{0x5eC4e7B17e5eCBA5ULL};
  /// Listening address (loopback only in this build).
  const char* host{"127.0.0.1"};
  /// Transport sizing: event-loop shards, mailbox consumers, outbox cap.
  /// Receive buffers are not an option: one chunk per loop shard
  /// (TcpNetwork::kRecvChunkBytes). Zero fields resolve to hardware defaults
  /// (net::TransportOptions::resolved). SystemConfig::Builder validates
  /// and carries the same struct for deployments built from a config.
  net::TransportOptions options{};
};

class TcpNetwork final : public net::Transport {
 public:
  /// Capacity of the receive chunk every loop shard reads into. A frame
  /// that one read cuts, such as any frame larger than this, completes in a
  /// buffer of its own.
  static constexpr size_t kRecvChunkBytes = 256 * 1024;

  explicit TcpNetwork(TcpConfig config);
  ~TcpNetwork() override;

  TcpNetwork(const TcpNetwork&) = delete;
  TcpNetwork& operator=(const TcpNetwork&) = delete;

  /// Registers a process and records it in the address book. Call before
  /// start(). With `listen` (the default) the endpoint binds a listening
  /// socket on an ephemeral port; `listen=false` registers a dial-out-only
  /// endpoint (a client): it reaches servers by connecting and receives
  /// replies over its own connections, so a 10k-client fleet does not pay
  /// 10k listening sockets. Sends *to* a listen-less endpoint are shed
  /// (metrics().messages_dropped) unless a connection from it was adopted.
  void add_process(const ProcessId& pid, net::IProcess* process,
                   bool listen = true);

  /// Starts the executor (loop shards + mailbox consumers), which delivers
  /// on_start() to every process in its context, then hands the listeners
  /// to their loop shards.
  void start();

  /// Closes sockets and joins all threads.
  ///
  /// Contract: idempotent, and a documented no-op before start() -- both
  /// reduce to "only the winner of the `running_` exchange performs the
  /// shutdown"; later, concurrent, or premature calls return immediately.
  /// Must be called from an *external* thread (the owner or any client
  /// thread), never from a loop shard or mailbox consumer: stop() joins
  /// those threads and would self-deadlock. Asserted in debug builds.
  void stop();

  /// The port a process listens on (0 for listen-less endpoints).
  uint16_t port_of(const ProcessId& pid) const;

  // --- live restart (Executor's surface; see runtime/executor.h) ----------
  //
  // mark_crashed, then quiesce (no handler of it is running), then
  // replace_process (same shard count), then revive. A crashed process's
  // sends are dropped, frames that reach it are dropped at dispatch, and
  // its timers do not fire; its connections stay up, so a revived process
  // just sees a slow network.

  void mark_crashed(const ProcessId& pid) { exec_.mark_crashed(pid); }
  void quiesce(const ProcessId& pid) { exec_.quiesce(pid); }
  void replace_process(const ProcessId& pid, net::IProcess* process) {
    exec_.replace_process(pid, process);
  }
  void revive(const ProcessId& pid) { exec_.revive(pid); }

  // --- net::Transport -----------------------------------------------------
  void send_payload(const ProcessId& from, const ProcessId& to,
                    Payload payload) override;
  TimeNs now() const override;
  void post(const ProcessId& pid, std::function<void()> fn) override {
    exec_.post(pid, std::move(fn));
  }
  void post_after(const ProcessId& pid, TimeNs delta,
                  std::function<void()> fn) override {
    exec_.post_after(pid, delta, std::move(fn));
  }
  net::NetworkMetrics& metrics() override { return metrics_; }

  // --- TestHooks ------------------------------------------------------------

  /// The one test/diagnostic surface of the transport (replacing the old
  /// debug_* grab-bag). Everything here is observation or fault injection
  /// for tests and the harness; production code must not call it. All
  /// methods are safe from any external thread while the network runs.
  class TestHooks {
   public:
    /// Receive-path accounting for the zero-copy guarantee: the only bytes
    /// ever copied on delivery are the part of a frame read before it
    /// straddled a read, moved to its connection (at most one chunk per
    /// frame, independent of payload size). `chunks_allocated` counts the
    /// receive buffers (shard chunks and frame buffers) the pool could not
    /// supply, charged to the endpoint whose connection asked.
    struct RecvStats {
      uint64_t chunks_allocated{0};
      uint64_t tail_bytes_copied{0};
      uint64_t payload_bytes_delivered{0};
    };

    /// Write-path accounting for the EPOLLOUT state machine: how often a
    /// short/blocked write armed EPOLLOUT, how many readiness wakes
    /// resumed a flush, and how many sendmsg calls transmitted less than
    /// requested (the partial-write resume path).
    struct SendStats {
      uint64_t epollout_arms{0};
      uint64_t epollout_wakes{0};
      uint64_t partial_writes{0};
    };

    RecvStats recv_stats(const ProcessId& pid) const;
    SendStats send_stats(const ProcessId& pid) const;

    /// Bytes currently queued from `from` toward `to` (headers +
    /// payloads), counting both unflushed frames and frames waiting on
    /// socket writability.
    size_t outbox_bytes(const ProcessId& from, const ProcessId& to) const;

    /// The loop shard that owns `pid`'s listener, dialed connections and
    /// timers. Pure function of (pid, loop_shards): tests assert the
    /// mapping is stable across calls and across instances.
    size_t loop_shard_of(const ProcessId& pid) const;

    /// Fault injection: shuts down every connection accepted by `pid`'s
    /// endpoint (simulates a peer's socket dying mid-stream; senders must
    /// reconnect).
    void shutdown_inbound(const ProcessId& pid);

    /// Pauses/resumes flushing of `pid`'s outbound queues so tests can
    /// fill the bounded outbox deterministically. stop() overrides a
    /// pause.
    void pause_writes(const ProcessId& pid, bool paused);

    /// Pauses/resumes reading on every connection delivering to `pid`
    /// (disarms EPOLLIN). The peer's kernel buffers then fill and its
    /// writes go short -- the deterministic way to exercise the EPOLLOUT
    /// partial-write path.
    void pause_reads(const ProcessId& pid, bool paused);

   private:
    friend class TcpNetwork;
    explicit TestHooks(TcpNetwork& net) : net_(net) {}
    TcpNetwork& net_;
  };

  TestHooks test_hooks() { return TestHooks(*this); }

 private:
  struct Endpoint;
  struct Conn;

  /// Frame header: [u32 length][from pid (5)][to pid (5)][u64 mac]; length
  /// counts everything after itself (addressing + mac + payload).
  static constexpr size_t kHeaderSize = 4 + 5 + 5 + 8;

  /// One sealed outbound frame: fixed header + refcounted payload view.
  /// Flushes scatter-gather both with sendmsg, so the payload is never
  /// concatenated into a contiguous frame -- and a payload fanned out to n
  /// peers is shared by all n frames, not copied.
  struct OutFrame {
    std::array<uint8_t, kHeaderSize> header;
    Payload payload;
  };

  /// Per-destination outbound state (ep->out_mu). `conn` is a routing hint
  /// only: it may be dereferenced solely on `conn_shard`'s loop thread.
  struct OutQueue {
    std::deque<OutFrame> pending;   // sealed, not yet handed to a conn
    size_t queued_bytes{0};  // bytes parked in `pending`; claimed frames
                           // leave the cap at hand-off to the conn
    bool flush_scheduled{false};
    Conn* conn{nullptr};
    size_t conn_shard{0};
    int failures{0};  // consecutive conn failures; 2 drops the backlog
  };

  /// Refcounted receive buffer: a shard chunk or one straddling frame.
  /// Delivered payloads alias it via Payload(shared_ptr, view).
  struct RecvBuf {
    explicit RecvBuf(size_t capacity)
        : data(new uint8_t[capacity]), cap(capacity) {}
    std::unique_ptr<uint8_t[]> data;
    size_t cap;
  };

  /// Free receive buffers of one loop shard, keyed by capacity, the last
  /// one returned first among equals. A buffer comes back here from the
  /// deleter of its last reference, so its memory is reused only after that
  /// hand-off through `mu`. Shared-ptr'd because delivered payloads may
  /// outlive the network object.
  struct RecvPool {
    Mutex mu;
    std::multimap<size_t, std::unique_ptr<RecvBuf>> free GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu){0};
  };

  /// One loop shard's receive state (its thread only). Every connection of
  /// the shard reads into `chunk` at `filled`; [0, filled) holds delivered
  /// frames that payload views may still alias, and nothing aliases the
  /// bytes past it.
  struct RecvShard {
    std::shared_ptr<RecvPool> pool{std::make_shared<RecvPool>()};
    std::shared_ptr<RecvBuf> chunk;
    size_t filled{0};
  };

  /// The part of a frame that straddled a read (owning shard's thread
  /// only). Until its 4 length bytes are known only those are kept; then
  /// `buf` holds the frame from its length prefix on, `have` of `size`.
  struct Partial {
    std::array<uint8_t, 3> prefix{};
    size_t prefix_len{0};
    std::shared_ptr<RecvBuf> buf;
    size_t size{0};
    size_t have{0};
  };

  // --- cross-thread entry points -------------------------------------------
  Endpoint* find(const ProcessId& pid);
  const Endpoint* find(const ProcessId& pid) const;
  bool on_internal_thread() const;
  /// Schedules a flush of ep->out[to] on its owning shard if none is
  /// pending. Never called with out_mu held (posting is a syscall).
  void schedule_flush(Endpoint* ep, const ProcessId& to);

  // --- loop-shard helpers (each runs on the shard named in its args) -------
  void flush_task(size_t shard, Endpoint* ep, ProcessId to);
  Conn* dial(size_t shard, Endpoint* ep, const ProcessId& to);
  void register_conn(std::unique_ptr<Conn> conn);
  void accept_ready(Endpoint* ep);
  void on_conn_event(Conn* c, uint32_t events);
  bool read_conn(Conn* c);
  bool deliver_frame(Conn* c, const std::shared_ptr<RecvBuf>& buf,
                     const uint8_t* frame);
  static std::shared_ptr<RecvBuf> acquire_buf(Endpoint* ep,
                                              const std::shared_ptr<RecvPool>& pool,
                                              size_t size);
  bool try_write(Conn* c);
  ssize_t write_once(Conn* c, size_t* sent_frame_bytes);
  void update_conn_events(Conn* c);
  /// Closes `c`, salvages or sheds its backlog, and erases it from the
  /// shard registry. `c` is invalid after the call; callers must return.
  void conn_failed(Conn* c);
  void drain_shard(size_t shard);

  crypto::Authenticator auth_;
  TcpConfig config_;
  net::TransportOptions opts_;  // config_.options.resolved()
  net::NetworkMetrics metrics_;
  std::map<ProcessId, std::unique_ptr<Endpoint>> endpoints_;
  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point epoch_;

  runtime::Executor exec_;
  runtime::EventLoop& loop_;  // exec_.loop(): sockets live on its shards
  /// shard index -> conns owned by that shard's thread, and that shard's
  /// receive chunk. The vectors themselves are immutable after
  /// construction; element s is touched only on shard s's loop thread
  /// (and in stop(), after the join).
  std::vector<std::map<int, std::unique_ptr<Conn>>> shard_conns_;
  std::vector<RecvShard> shard_recv_;
};

}  // namespace bftreg::socknet
