#include "socknet/tcp_network.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/serde.h"

namespace bftreg::socknet {

namespace {

constexpr size_t kMaxFrame = 64 * 1024 * 1024;  // sanity cap: 64 MiB
/// Smallest useful recv() target; below this the shard takes a new chunk.
constexpr size_t kMinRecv = 4096;
/// Cap on the free bytes one shard's receive pool keeps. A preload burst
/// (thousands of requests in flight) pins chunks in mailbox queues; a
/// tighter cap would hand them back to the allocator after every burst.
constexpr size_t kRecvPoolBytes = 64 * 1024 * 1024;
/// iovec budget per sendmsg (well under any platform's IOV_MAX).
constexpr size_t kMaxIov = 256;
/// Per-connection budget for the best-effort flush at stop().
constexpr int kDrainMs = 100;

uint32_t load_le32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

void store_le32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void store_le64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

}  // namespace

struct TcpNetwork::Endpoint {
  ProcessId pid;
  /// The process's delivery contexts in the executor.
  runtime::Executor::Slot* slot{nullptr};
  // Atomic: stop() publishes -1 while loop threads may still be reading it.
  std::atomic<int> listen_fd{-1};
  uint16_t port{0};
  /// hash(pid) % loop shards: owns the listener, dialed conns and timers.
  size_t home_shard{0};

  // Outbound routing: send() appends sealed frames under out_mu; the
  // owning loop shard pulls whole queues and flushes them with sendmsg.
  // No syscall ever runs under out_mu (blocking-in-lock lint rule).
  Mutex out_mu;
  std::map<ProcessId, OutQueue> out GUARDED_BY(out_mu);

  // TestHooks fault-injection switches, honored by the loop shards.
  std::atomic<bool> writes_paused{false};
  std::atomic<bool> reads_paused{false};

  // Receive-path accounting (loop shards write, TestHooks reads).
  std::atomic<uint64_t> chunks_allocated{0};
  std::atomic<uint64_t> tail_bytes_copied{0};
  std::atomic<uint64_t> payload_bytes_delivered{0};
  // EPOLLOUT state-machine accounting.
  std::atomic<uint64_t> epollout_arms{0};
  std::atomic<uint64_t> epollout_wakes{0};
  std::atomic<uint64_t> partial_writes{0};
};

/// One full-duplex TCP connection, owned by exactly one loop shard: every
/// field is touched only on that shard's thread (stop() reclaims leftovers
/// after the join). A dialed conn knows its peer from birth; an accepted
/// conn learns it from the first authenticated frame and is then adopted
/// as the outbound route to that peer.
struct TcpNetwork::Conn {
  int fd{-1};
  size_t shard{0};
  Endpoint* ep{nullptr};
  ProcessId peer{};
  bool peer_known{false};
  bool inbound{false};
  bool connecting{false};  // nonblocking connect() in flight
  bool want_write{false};  // EPOLLOUT armed: short write pending resume
  bool reading{true};      // EPOLLIN armed (TestHooks::pause_reads clears)
  uint32_t armed{0};       // epoll mask currently registered
  Partial partial;         // a frame cut by the last read, if any
  std::deque<OutFrame> inflight;  // handed over by flush_task
  size_t wr_offset{0};            // bytes of inflight.front() on the wire
};

TcpNetwork::TcpNetwork(TcpConfig config)
    : auth_(crypto::KeyRegistry(config.master_secret)),
      config_(config),
      opts_(config.options.resolved()),
      epoch_(std::chrono::steady_clock::now()),
      exec_(opts_, &metrics_),
      loop_(exec_.loop()),
      shard_conns_(loop_.size()),
      shard_recv_(loop_.size()) {}

TcpNetwork::~TcpNetwork() {
  stop();
  // Endpoints registered but never start()ed still own their listener.
  for (auto& [pid, ep] : endpoints_) {
    const int lfd = ep->listen_fd.exchange(-1);
    if (lfd >= 0) ::close(lfd);
  }
}

TimeNs TcpNetwork::now() const {
  return static_cast<TimeNs>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - epoch_)
                                 .count());
}

TcpNetwork::Endpoint* TcpNetwork::find(const ProcessId& pid) {
  auto it = endpoints_.find(pid);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

const TcpNetwork::Endpoint* TcpNetwork::find(const ProcessId& pid) const {
  auto it = endpoints_.find(pid);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

uint16_t TcpNetwork::port_of(const ProcessId& pid) const {
  const Endpoint* ep = find(pid);
  return ep == nullptr ? 0 : ep->port;
}

void TcpNetwork::add_process(const ProcessId& pid, net::IProcess* process,
                             bool listen) {
  assert(!running_.load());
  auto ep = std::make_unique<Endpoint>();
  ep->pid = pid;
  ep->slot = exec_.add_process(pid, process);
  ep->home_shard = loop_.shard_of(pid);

  if (listen) {
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    assert(listen_fd >= 0);
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = ::inet_addr(config_.host);
    addr.sin_port = 0;  // ephemeral
    [[maybe_unused]] int rc =
        ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    assert(rc == 0);
    rc = ::listen(listen_fd, 1024);
    assert(rc == 0);

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len);
    ep->port = ntohs(bound.sin_port);
    ep->listen_fd.store(listen_fd);
  }

  endpoints_[pid] = std::move(ep);
}

void TcpNetwork::start() {
  [[maybe_unused]] const bool was_running = running_.exchange(true);
  assert(!was_running);
  {
    // Pairwise-key precompute is O(k^2); a client fleet would pay millions
    // of derivations for pairs that never talk. Full precompute for small
    // clusters; above the cap, only pairs touching a server (clients talk
    // exclusively to servers in every register protocol here).
    std::vector<ProcessId> pids;
    pids.reserve(endpoints_.size());
    for (const auto& [pid, ep] : endpoints_) pids.push_back(pid);
    if (pids.size() <= 256) {
      auth_.precompute(pids);
    } else {
      std::vector<ProcessId> servers;
      for (const ProcessId& p : pids) {
        if (p.is_server()) servers.push_back(p);
      }
      auth_.precompute_pairs(servers, pids);
    }
  }
  exec_.start();
  // Hand each listener to its home shard (fd registration is loop-thread
  // only). Connections arriving before the task runs wait in the backlog.
  for (auto& [pid, ep] : endpoints_) {
    Endpoint* e = ep.get();
    if (e->listen_fd.load() < 0) continue;
    loop_.shard(e->home_shard).post([this, e] {
      loop_.shard(e->home_shard)
          .add_fd(e->listen_fd.load(), EPOLLIN,
                  [this, e](uint32_t) { accept_ready(e); });
    });
  }
}

bool TcpNetwork::on_internal_thread() const {
  return exec_.on_executor_thread();
}

void TcpNetwork::stop() {
  // No-op before start() by contract (nothing to shut down), and
  // idempotent after it: only the winner of the exchange proceeds.
  if (!running_.exchange(false)) return;
  assert(!on_internal_thread() && "stop() called from a network-owned thread");

  // Best-effort drain: force-flush every non-empty queue (tasks run either
  // in-loop or in the shard's final task drain), then a per-shard rundown
  // that waits boundedly for writability and sheds what will not go.
  for (auto& [pid, ep] : endpoints_) {
    ep->writes_paused.store(false, std::memory_order_relaxed);
    std::vector<ProcessId> dests;
    {
      MutexLock lock(ep->out_mu);
      for (const auto& [to, q] : ep->out) {
        if (q.queued_bytes > 0) dests.push_back(to);
      }
    }
    for (const ProcessId& to : dests) schedule_flush(ep.get(), to);
  }
  for (size_t s = 0; s < loop_.size(); ++s) {
    loop_.shard(s).post([this, s] { drain_shard(s); });
  }
  // Loop shards stop first, so nothing publishes new deliveries; the
  // consumers drain whatever is still queued before they exit.
  exec_.stop();

  // All threads joined: reclaim every fd the shards still owned.
  for (auto& conns : shard_conns_) {
    for (auto& [fd, c] : conns) ::close(fd);
    conns.clear();
  }
  for (auto& [pid, ep] : endpoints_) {
    const int lfd = ep->listen_fd.exchange(-1);
    if (lfd >= 0) ::close(lfd);
  }
}

// --- inbound ---------------------------------------------------------------

void TcpNetwork::accept_ready(Endpoint* ep) {
  const int lfd = ep->listen_fd.load();
  if (lfd < 0) return;
  for (;;) {
    const int fd = ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN (drained) or listener closing
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->shard = loop_.next_conn_shard();
    conn->ep = ep;
    conn->inbound = true;
    conn->reading = !ep->reads_paused.load(std::memory_order_relaxed);
    if (conn->shard == ep->home_shard) {
      register_conn(std::move(conn));
      continue;
    }
    // Hand the fd to its owning shard. The closure owns the Conn through a
    // shared_ptr (std::function needs a copyable closure). stop() stops the
    // shards one at a time, so a hand-off can reach a shard that already
    // ran its final drain; the dropped task then frees the Conn, and the
    // deleter closes the fd that no shard ever registered.
    const size_t shard = conn->shard;
    std::shared_ptr<std::unique_ptr<Conn>> owned(
        new std::unique_ptr<Conn>(std::move(conn)),
        [](std::unique_ptr<Conn>* p) {
          if (*p) ::close((*p)->fd);
          delete p;
        });
    loop_.shard(shard).post([this, owned] { register_conn(std::move(*owned)); });
  }
}

void TcpNetwork::register_conn(std::unique_ptr<Conn> conn) {
  Conn* c = conn.get();
  uint32_t mask = 0;
  if (c->reading && !c->connecting) mask |= EPOLLIN;
  if (c->want_write || c->connecting) mask |= EPOLLOUT;
  c->armed = mask;
  loop_.shard(c->shard).add_fd(c->fd, mask,
                               [this, c](uint32_t ev) { on_conn_event(c, ev); });
  shard_conns_[c->shard][c->fd] = std::move(conn);
}

void TcpNetwork::update_conn_events(Conn* c) {
  uint32_t mask = 0;
  if (c->reading && !c->connecting) mask |= EPOLLIN;
  if (c->want_write || c->connecting) mask |= EPOLLOUT;
  if (mask != c->armed) {
    loop_.shard(c->shard).mod_fd(c->fd, mask);
    c->armed = mask;
  }
}

void TcpNetwork::on_conn_event(Conn* c, uint32_t events) {
  if (c->connecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(c->fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if ((events & (EPOLLERR | EPOLLHUP)) != 0 || err != 0) {
      conn_failed(c);
      return;
    }
    c->connecting = false;
    try_write(c);  // flush what queued while the connect was in flight
    return;
  }
  if ((events & EPOLLIN) != 0 && c->reading) {
    if (!read_conn(c)) {
      conn_failed(c);
      return;
    }
  }
  if ((events & EPOLLOUT) != 0) {
    c->ep->epollout_wakes.fetch_add(1, std::memory_order_relaxed);
    if (!try_write(c)) return;  // conn died mid-flush
  }
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) conn_failed(c);
}

/// Reads `c` until a recv comes back short (the socket is then empty, and
/// level-triggered epoll reports it again when more arrives). Bytes go into
/// the shard chunk at `filled`, or, while `c` holds the start of a frame,
/// straight into that frame's buffer. Returns false to kill the connection
/// (peer closed, socket error or corrupt framing).
bool TcpNetwork::read_conn(Conn* c) {
  RecvShard& rs = shard_recv_[c->shard];
  Partial& part = c->partial;
  for (;;) {
    uint8_t* dst = nullptr;
    size_t want = 0;
    if (part.buf) {
      // Ask for exactly the missing bytes, so none of the next frame lands
      // in this frame's buffer.
      dst = part.buf->data.get() + part.have;
      want = part.size - part.have;
    } else {
      if (!rs.chunk || rs.chunk->cap - rs.filled < kMinRecv) {
        // The old chunk goes back to the pool when its last view dies --
        // at once if none is left, so the shard can take it straight back.
        rs.chunk.reset();
        rs.chunk = acquire_buf(c->ep, rs.pool, kRecvChunkBytes);
        rs.filled = 0;
      }
      // A length prefix cut by the last read goes back in front of the
      // new bytes (at most 3 bytes; nothing aliases the chunk past filled).
      dst = rs.chunk->data.get() + rs.filled;
      std::memcpy(dst, part.prefix.data(), part.prefix_len);
      dst += part.prefix_len;
      want = rs.chunk->cap - rs.filled - part.prefix_len;
    }
    const ssize_t r = ::recv(c->fd, dst, want, 0);
    if (r == 0) return false;  // peer closed
    if (r < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    const auto got = static_cast<size_t>(r);

    if (part.buf) {
      part.have += got;
      if (part.have == part.size) {
        const std::shared_ptr<RecvBuf> buf = std::move(part.buf);
        part = Partial{};
        if (!deliver_frame(c, buf, buf->data.get())) return false;
      }
    } else {
      // Deliver every whole frame in place. A trailing partial frame moves
      // to this connection and `filled` stays before it: nothing aliases
      // those bytes, and the shard's next read overwrites them.
      const uint8_t* base = rs.chunk->data.get() + rs.filled;
      const size_t avail = part.prefix_len + got;
      part.prefix_len = 0;
      size_t pos = 0;
      while (avail - pos >= 4) {
        const uint32_t frame_len = load_le32(base + pos);
        if (frame_len < kHeaderSize - 4 || frame_len > kMaxFrame) return false;
        const size_t size = size_t{4} + frame_len;
        if (avail - pos < size) {
          // The one payload copy on the receive path: what was read of this
          // frame so far, never more than one chunk. Later reads complete
          // it in its own buffer.
          part.buf = acquire_buf(c->ep, rs.pool, size);
          part.size = size;
          part.have = avail - pos;
          std::memcpy(part.buf->data.get(), base + pos, part.have);
          c->ep->tail_bytes_copied.fetch_add(part.have, std::memory_order_relaxed);
          pos = avail;
          break;
        }
        rs.filled += size;
        if (!deliver_frame(c, rs.chunk, base + pos)) return false;
        pos += size;
      }
      if (pos < avail) {  // fewer than 4 bytes: only the length prefix
        part.prefix_len = avail - pos;
        std::memcpy(part.prefix.data(), base + pos, part.prefix_len);
        c->ep->tail_bytes_copied.fetch_add(part.prefix_len, std::memory_order_relaxed);
      }
    }
    if (got < want) return true;  // short read: the socket is drained
  }
}

/// Takes a free buffer of at least `size` bytes (and at most twice that, so
/// a short frame never pins a whole chunk) from the shard's pool, or
/// allocates one. The returned shared_ptr's deleter gives the buffer back
/// to the pool when the last aliasing payload dies.
std::shared_ptr<TcpNetwork::RecvBuf> TcpNetwork::acquire_buf(
    Endpoint* ep, const std::shared_ptr<RecvPool>& pool, size_t size) {
  std::unique_ptr<RecvBuf> buf;
  {
    MutexLock lock(pool->mu);
    auto it = pool->free.lower_bound(size);
    if (it != pool->free.end() && it->first <= 2 * size) {
      buf = std::move(it->second);
      pool->bytes -= it->first;
      pool->free.erase(it);
    }
  }
  if (!buf) {
    buf = std::make_unique<RecvBuf>(size);
    ep->chunks_allocated.fetch_add(1, std::memory_order_relaxed);
  }
  return std::shared_ptr<RecvBuf>(buf.release(), [pool](RecvBuf* b) {
    std::unique_ptr<RecvBuf> owned(b);
    MutexLock lock(pool->mu);
    if (pool->bytes + owned->cap <= kRecvPoolBytes) {
      // In front of its equals, so the next request of this size takes the
      // buffer that came back last, still warm in cache: steady traffic
      // cycles the same two chunks however many a burst left in the pool.
      pool->bytes += owned->cap;
      const size_t cap = owned->cap;
      pool->free.emplace_hint(pool->free.lower_bound(cap), cap, std::move(owned));
    }
  });
}

/// Checks one whole frame (`frame` points at its length prefix, already
/// bounds-checked) and publishes its envelope, whose payload aliases `buf`,
/// straight into its delivery context. The first authenticated frame on an
/// accepted connection names the peer and adopts the connection as the
/// outbound route to it (full duplex). Returns false to kill the connection
/// (misrouted or corrupt header); a forged MAC only drops the frame.
bool TcpNetwork::deliver_frame(Conn* conn, const std::shared_ptr<RecvBuf>& buf,
                               const uint8_t* frame) {
  Endpoint* ep = conn->ep;
  const uint32_t frame_len = load_le32(frame);
  Deserializer d(frame + 4, kHeaderSize - 4);
  const ProcessId from = d.get_process_id();
  const ProcessId to = d.get_process_id();
  const uint64_t mac = d.get_u64();
  if (!d.ok() || !(to == ep->pid)) return false;  // misrouted or corrupt

  const BytesView payload(frame + kHeaderSize, frame_len - (kHeaderSize - 4));
  if (!auth_.verify(from, to, payload, mac)) {
    metrics_.on_auth_failure();
    return true;  // drop the forged frame, keep the connection
  }
  if (!conn->peer_known) {
    // Adoption: this (MAC-authenticated) peer reaches us over this
    // connection, so our replies ride it back -- no dial-back, no second
    // socket, and listen-less clients stay reachable. An existing route
    // wins; we only fill a vacancy.
    conn->peer = from;
    conn->peer_known = true;
    MutexLock lock(ep->out_mu);
    OutQueue& q = ep->out[from];
    if (q.conn == nullptr) {
      q.conn = conn;
      q.conn_shard = conn->shard;
    }
  }
  metrics_.on_deliver();
  ep->payload_bytes_delivered.fetch_add(payload.size(), std::memory_order_relaxed);
  net::Envelope env;
  env.from = from;
  env.to = to;
  env.mac = mac;
  env.payload = Payload(buf, payload);
  exec_.deliver(ep->slot, std::move(env));
  return true;
}

// --- outbound --------------------------------------------------------------

void TcpNetwork::send_payload(const ProcessId& from, const ProcessId& to,
                              Payload payload) {
  if (!running_.load()) return;
  Endpoint* src = find(from);
  if (src == nullptr || exec_.crashed(src->slot)) return;

  // Seal the fixed-size header straight into the frame: no Serializer
  // buffer, no payload concatenation (flushes scatter-gather).
  OutFrame frame;
  uint8_t* h = frame.header.data();
  store_le32(h, static_cast<uint32_t>(kHeaderSize - 4 + payload.size()));
  h[4] = static_cast<uint8_t>(from.role);
  store_le32(h + 5, from.index);
  h[9] = static_cast<uint8_t>(to.role);
  store_le32(h + 10, to.index);
  store_le64(h + 14, auth_.seal(from, to, payload));

  metrics_.on_send(payload.size());
  frame.payload = std::move(payload);
  const size_t frame_bytes = kHeaderSize + frame.payload.size();

  bool need_post = false;
  size_t post_shard = 0;
  {
    MutexLock lock(src->out_mu);
    OutQueue& q = src->out[to];
    if (q.queued_bytes > 0 &&
        q.queued_bytes + frame_bytes > opts_.max_outbox_bytes) {
      metrics_.on_drop();  // bounded queue: shed instead of growing
      return;
    }
    q.queued_bytes += frame_bytes;
    q.pending.push_back(std::move(frame));
    if (!q.flush_scheduled) {
      q.flush_scheduled = true;
      need_post = true;
      post_shard = q.conn != nullptr ? q.conn_shard : src->home_shard;
    }
  }
  // Posting wakes the shard (eventfd write) -- never do it under out_mu.
  if (need_post) {
    loop_.shard(post_shard).post(
        [this, post_shard, src, to] { flush_task(post_shard, src, to); });
  }
}

void TcpNetwork::schedule_flush(Endpoint* ep, const ProcessId& to) {
  size_t shard = 0;
  {
    MutexLock lock(ep->out_mu);
    auto it = ep->out.find(to);
    if (it == ep->out.end() || it->second.queued_bytes == 0 ||
        it->second.flush_scheduled) {
      return;
    }
    it->second.flush_scheduled = true;
    shard = it->second.conn != nullptr ? it->second.conn_shard : ep->home_shard;
  }
  loop_.shard(shard).post([this, shard, ep, to] { flush_task(shard, ep, to); });
}

void TcpNetwork::flush_task(size_t shard, Endpoint* ep, ProcessId to) {
  Conn* c = nullptr;
  size_t chase = 0;
  bool chasing = false;
  {
    MutexLock lock(ep->out_mu);
    auto it = ep->out.find(to);
    if (it == ep->out.end()) return;
    OutQueue& q = it->second;
    q.flush_scheduled = false;
    if (q.conn != nullptr && q.conn_shard != shard) {
      // The route moved between post and run (an adoption raced us);
      // chase it to the owning shard.
      q.flush_scheduled = true;
      chasing = true;
      chase = q.conn_shard;
    } else {
      c = q.conn;
    }
  }
  if (chasing) {
    loop_.shard(chase).post([this, chase, ep, to] { flush_task(chase, ep, to); });
    return;
  }
  if (ep->writes_paused.load(std::memory_order_relaxed)) return;
  if (c == nullptr) {
    c = dial(shard, ep, to);
    if (c == nullptr) {
      // Destination unknown, listen-less, or immediately unreachable:
      // shed the backlog (client deadlines retransmit).
      MutexLock lock(ep->out_mu);
      OutQueue& q = ep->out[to];
      metrics_.on_drop_n(q.pending.size());
      q.pending.clear();
      q.queued_bytes = 0;
      q.failures = 0;
      return;
    }
  }
  if (c->connecting || c->want_write) {
    // Still connecting or backpressured: leave pending parked (and counted
    // against the outbox cap) so inflight stays bounded by one claimed
    // batch; the connect-completion / EPOLLOUT try_write claims it after
    // the socket drains.
    return;
  }
  {
    MutexLock lock(ep->out_mu);
    OutQueue& q = ep->out[to];
    if (q.conn != c) return;  // route moved; the adopter's flush handles it
    for (auto& f : q.pending) c->inflight.push_back(std::move(f));
    q.pending.clear();
    // Hand-off accounting: claimed frames leave the bounded outbox (they
    // are already "on the wire" as far as send-side shedding is concerned),
    // exactly like the old per-endpoint writer's batch grab.
    q.queued_bytes = 0;
  }
  try_write(c);  // refills from pending inline while the socket drains
}

TcpNetwork::Conn* TcpNetwork::dial(size_t shard, Endpoint* ep,
                                   const ProcessId& to) {
  Endpoint* dst = find(to);
  if (dst == nullptr || dst->port == 0) return nullptr;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return nullptr;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::inet_addr(config_.host);
  addr.sin_port = htons(dst->port);
  bool connecting = false;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return nullptr;
    }
    connecting = true;  // completion (or failure) arrives as EPOLLOUT/ERR
  }
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->shard = shard;
  conn->ep = ep;
  conn->peer = to;
  conn->peer_known = true;
  conn->connecting = connecting;
  conn->reading = !ep->reads_paused.load(std::memory_order_relaxed);
  Conn* raw = conn.get();
  {
    MutexLock lock(ep->out_mu);
    OutQueue& q = ep->out[to];
    q.conn = raw;
    q.conn_shard = shard;
  }
  register_conn(std::move(conn));
  return raw;
}

/// One sendmsg over the inflight queue starting at wr_offset, coalescing
/// up to kMaxIov iovecs. Pops fully transmitted frames (their sizes
/// accumulate into *sent_frame_bytes) and advances wr_offset into the new
/// front. Returns bytes written, 0 for try-again (EAGAIN/EINTR), -1 for a
/// dead connection.
ssize_t TcpNetwork::write_once(Conn* c, size_t* sent_frame_bytes) {
  iovec iov[kMaxIov];
  size_t niov = 0;
  size_t batch_bytes = 0;
  for (auto it = c->inflight.begin();
       it != c->inflight.end() && niov + 2 <= kMaxIov; ++it) {
    size_t off = (it == c->inflight.begin()) ? c->wr_offset : 0;
    if (off < kHeaderSize) {
      iov[niov].iov_base = it->header.data() + off;
      iov[niov].iov_len = kHeaderSize - off;
      batch_bytes += iov[niov].iov_len;
      ++niov;
      off = 0;
    } else {
      off -= kHeaderSize;
    }
    if (it->payload.size() > off) {
      // iovec's iov_base is non-const by design; sendmsg only reads.
      iov[niov].iov_base = const_cast<uint8_t*>(it->payload.data()) + off;
      iov[niov].iov_len = it->payload.size() - off;
      batch_bytes += iov[niov].iov_len;
      ++niov;
    }
  }
  msghdr mh{};
  mh.msg_iov = iov;
  mh.msg_iovlen = niov;
  const ssize_t w = ::sendmsg(c->fd, &mh, MSG_NOSIGNAL);
  if (w < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return 0;
    return -1;
  }
  if (static_cast<size_t>(w) < batch_bytes) {
    c->ep->partial_writes.fetch_add(1, std::memory_order_relaxed);
  }
  size_t advanced = c->wr_offset + static_cast<size_t>(w);
  while (!c->inflight.empty()) {
    const size_t flen = kHeaderSize + c->inflight.front().payload.size();
    if (advanced < flen) break;
    advanced -= flen;
    *sent_frame_bytes += flen;
    c->inflight.pop_front();
  }
  c->wr_offset = advanced;
  return w;
}

/// Drains the conn's inflight queue as far as the socket allows, claiming
/// further pending batches from the route's outbox while the socket stays
/// writable. A short write arms EPOLLOUT (the readiness wake resumes
/// exactly where wr_offset left off); a full drain disarms it. Returns
/// false when the conn died (conn_failed ran; `c` is gone -- callers must
/// return).
bool TcpNetwork::try_write(Conn* c) {
  if (c->connecting) {
    update_conn_events(c);
    return true;
  }
  if (c->ep->writes_paused.load(std::memory_order_relaxed)) return true;
  size_t sent = 0;
  bool progress = false;
  bool dead = false;
  for (;;) {
    while (!c->inflight.empty()) {
      const ssize_t w = write_once(c, &sent);
      if (w > 0) {
        progress = true;
        continue;
      }
      if (w == 0) {
        if (!c->want_write) {
          c->want_write = true;
          c->ep->epollout_arms.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      dead = true;
      break;
    }
    if (dead || !c->inflight.empty() || !c->peer_known) break;
    // Socket fully drained: claim the next pending batch and keep writing.
    // Under ping-pong load the reply lands in pending during the sendmsg
    // above, and pulling it here saves a post()+wake round trip per frame;
    // after an EPOLLOUT resume it picks up what queued behind the stall.
    MutexLock lock(c->ep->out_mu);
    auto it = c->ep->out.find(c->peer);
    if (it == c->ep->out.end()) break;
    OutQueue& q = it->second;
    if (q.pending.empty() || q.conn != c) break;
    for (auto& f : q.pending) c->inflight.push_back(std::move(f));
    q.pending.clear();
    q.queued_bytes = 0;  // hand-off accounting, as in flush_task
  }
  if (!dead && c->inflight.empty()) c->want_write = false;
  if (c->peer_known && (sent > 0 || progress)) {
    // Progress resets the reconnect budget.
    MutexLock lock(c->ep->out_mu);
    auto it = c->ep->out.find(c->peer);
    if (it != c->ep->out.end()) it->second.failures = 0;
  }
  if (dead) {
    conn_failed(c);
    return false;
  }
  update_conn_events(c);
  return true;
}

void TcpNetwork::conn_failed(Conn* c) {
  const size_t shard = c->shard;
  const int fd = c->fd;
  loop_.shard(shard).del_fd(fd);

  Endpoint* ep = c->ep;
  bool redial = false;
  if (c->peer_known) {
    const ProcessId peer = c->peer;
    MutexLock lock(ep->out_mu);
    OutQueue& q = ep->out[peer];
    if (q.conn == c) q.conn = nullptr;
    const bool backlog = !c->inflight.empty() || !q.pending.empty();
    if (backlog) {
      q.failures++;
      if (q.failures <= 1) {
        // One reconnect attempt: requeue (inflight ahead of pending; a
        // partially transmitted front frame is resent whole on the fresh
        // stream) and redial from the home shard.
        for (auto it = c->inflight.rbegin(); it != c->inflight.rend(); ++it) {
          // Requeued frames re-enter the bounded outbox: restore the bytes
          // their claim removed so the cap sees the true backlog.
          q.queued_bytes += kHeaderSize + it->payload.size();
          q.pending.push_front(std::move(*it));
        }
        c->inflight.clear();
        if (!q.flush_scheduled) {
          q.flush_scheduled = true;
          redial = true;
        }
      } else {
        // Repeated failure without progress: shed the backlog (TCP gives
        // reliable FIFO while up; process failure is a crash in the model,
        // and client deadlines retransmit). Reset so the next send starts
        // a fresh connect cycle.
        metrics_.on_drop_n(c->inflight.size() + q.pending.size());
        c->inflight.clear();
        q.pending.clear();
        q.queued_bytes = 0;
        q.failures = 0;
      }
    }
  }
  const ProcessId peer = c->peer;
  shard_conns_[shard].erase(fd);  // destroys c
  ::close(fd);
  if (redial) {
    const size_t home = ep->home_shard;
    loop_.shard(home).post([this, home, ep, peer] { flush_task(home, ep, peer); });
  }
}

/// stop()-time rundown for one shard: adopt any frames still parked in the
/// queues its conns serve, then wait boundedly for writability and push.
/// What will not drain inside the budget is shed and counted.
void TcpNetwork::drain_shard(size_t shard) {
  using clock = std::chrono::steady_clock;
  for (auto& [fd, cptr] : shard_conns_[shard]) {
    Conn* c = cptr.get();
    if (c->peer_known) {
      MutexLock lock(c->ep->out_mu);
      auto it = c->ep->out.find(c->peer);
      if (it != c->ep->out.end() && it->second.conn == c) {
        for (auto& f : it->second.pending) c->inflight.push_back(std::move(f));
        it->second.pending.clear();
        it->second.queued_bytes = 0;
      }
    }
    const auto deadline = clock::now() + std::chrono::milliseconds(kDrainMs);
    size_t sent = 0;
    while (!c->inflight.empty()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - clock::now())
                            .count();
      if (left <= 0) break;
      pollfd p{};
      p.fd = c->fd;
      p.events = POLLOUT;
      if (::poll(&p, 1, static_cast<int>(left)) <= 0) break;
      if (c->connecting) {  // POLLOUT doubles as connect completion
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(c->fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) break;
        c->connecting = false;
      }
      if (write_once(c, &sent) < 0) break;
    }
    if (!c->inflight.empty()) metrics_.on_drop_n(c->inflight.size());
  }
}

// --- TestHooks -------------------------------------------------------------

TcpNetwork::TestHooks::RecvStats TcpNetwork::TestHooks::recv_stats(
    const ProcessId& pid) const {
  RecvStats out;
  if (const Endpoint* ep = net_.find(pid)) {
    out.chunks_allocated = ep->chunks_allocated.load(std::memory_order_relaxed);
    out.tail_bytes_copied = ep->tail_bytes_copied.load(std::memory_order_relaxed);
    out.payload_bytes_delivered =
        ep->payload_bytes_delivered.load(std::memory_order_relaxed);
  }
  return out;
}

TcpNetwork::TestHooks::SendStats TcpNetwork::TestHooks::send_stats(
    const ProcessId& pid) const {
  SendStats out;
  if (const Endpoint* ep = net_.find(pid)) {
    out.epollout_arms = ep->epollout_arms.load(std::memory_order_relaxed);
    out.epollout_wakes = ep->epollout_wakes.load(std::memory_order_relaxed);
    out.partial_writes = ep->partial_writes.load(std::memory_order_relaxed);
  }
  return out;
}

size_t TcpNetwork::TestHooks::outbox_bytes(const ProcessId& from,
                                           const ProcessId& to) const {
  Endpoint* ep = net_.find(from);
  if (ep == nullptr) return 0;
  MutexLock lock(ep->out_mu);
  auto it = ep->out.find(to);
  return it == ep->out.end() ? 0 : it->second.queued_bytes;
}

size_t TcpNetwork::TestHooks::loop_shard_of(const ProcessId& pid) const {
  return net_.loop_.shard_of(pid);
}

void TcpNetwork::TestHooks::shutdown_inbound(const ProcessId& pid) {
  Endpoint* ep = net_.find(pid);
  if (ep == nullptr) return;
  // shutdown(2), not close: the owning shard reaps the fd on the EOF this
  // provokes, so ownership never crosses threads. (Capture the network,
  // not `this` -- TestHooks is a by-value view and may be gone by the time
  // the task runs.)
  TcpNetwork* net = &net_;
  for (size_t s = 0; s < net->loop_.size(); ++s) {
    net->loop_.shard(s).post([net, s, ep] {
      for (auto& [fd, c] : net->shard_conns_[s]) {
        if (c->ep == ep && c->inbound) ::shutdown(fd, SHUT_RDWR);
      }
    });
  }
}

void TcpNetwork::TestHooks::pause_writes(const ProcessId& pid, bool paused) {
  Endpoint* ep = net_.find(pid);
  if (ep == nullptr) return;
  ep->writes_paused.store(paused, std::memory_order_relaxed);
  if (paused) return;
  // Resume: everything that accumulated while paused needs a flush.
  std::vector<ProcessId> dests;
  {
    MutexLock lock(ep->out_mu);
    for (const auto& [to, q] : ep->out) {
      if (q.queued_bytes > 0) dests.push_back(to);
    }
  }
  for (const ProcessId& to : dests) net_.schedule_flush(ep, to);
  // Frames claimed before the pause landed sit in conn inflight queues, not
  // in the outbox, so the scan above misses them: kick every conn of this
  // endpoint that still holds inflight work.
  TcpNetwork* net = &net_;
  for (size_t s = 0; s < net->loop_.size(); ++s) {
    net->loop_.shard(s).post([net, s, ep] {
      std::vector<int> fds;
      for (auto& [fd, c] : net->shard_conns_[s]) {
        if (c->ep == ep && !c->inflight.empty()) fds.push_back(fd);
      }
      for (int fd : fds) {  // try_write may erase the conn; re-find each
        auto it = net->shard_conns_[s].find(fd);
        if (it != net->shard_conns_[s].end()) net->try_write(it->second.get());
      }
    });
  }
}

void TcpNetwork::TestHooks::pause_reads(const ProcessId& pid, bool paused) {
  Endpoint* ep = net_.find(pid);
  if (ep == nullptr) return;
  ep->reads_paused.store(paused, std::memory_order_relaxed);
  // Re-arm (or disarm) EPOLLIN on every conn delivering to this endpoint;
  // level-triggered epoll replays anything that queued while paused.
  TcpNetwork* net = &net_;
  for (size_t s = 0; s < net->loop_.size(); ++s) {
    net->loop_.shard(s).post([net, s, ep, paused] {
      for (auto& [fd, c] : net->shard_conns_[s]) {
        if (c->ep != ep) continue;
        c->reading = !paused;
        net->update_conn_events(c.get());
      }
    });
  }
}

}  // namespace bftreg::socknet
