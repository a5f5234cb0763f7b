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
/// Smallest useful recv() target; below this the chunk is rolled/reused.
constexpr size_t kMinRecv = 4096;
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
  net::IProcess* process{nullptr};
  // Atomic: stop() publishes -1 while loop threads may still be reading it.
  std::atomic<int> listen_fd{-1};
  uint16_t port{0};
  /// hash(pid) % loop shards: owns the listener, dialed conns and timers.
  size_t home_shard{0};
  /// delivery shard -> pooled mailbox consumer index (round-robin at
  /// registration, so the shards of one process spread across consumers).
  std::vector<size_t> mail_ctx;

  // Outbound routing: send() appends sealed frames under out_mu; the
  // owning loop shard pulls whole queues and flushes them with sendmsg.
  // No syscall ever runs under out_mu (blocking-in-lock lint rule).
  Mutex out_mu;
  std::map<ProcessId, OutQueue> out GUARDED_BY(out_mu);

  // TestHooks fault-injection switches, honored by the loop shards.
  std::atomic<bool> writes_paused{false};
  std::atomic<bool> reads_paused{false};

  // Receive-chunk recycler; shared so payload deleters can outlive us.
  std::shared_ptr<ChunkPool> pool;

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
  ConnState rd;
  std::deque<OutFrame> inflight;  // handed over by flush_task
  size_t wr_offset{0};            // bytes of inflight.front() on the wire
};

TcpNetwork::TcpNetwork(TcpConfig config)
    : auth_(crypto::KeyRegistry(config.master_secret)),
      config_(config),
      opts_(config.options.resolved()),
      epoch_(std::chrono::steady_clock::now()),
      loop_(opts_.loop_shards),
      mail_(opts_.mailbox_shards),
      shard_conns_(loop_.size()) {}

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
  ep->process = process;
  ep->home_shard = loop_.shard_of(pid);
  ep->pool = std::make_shared<ChunkPool>(opts_.recv_pool_bytes);
  const uint32_t nctx = std::max<uint32_t>(1, process->delivery_shards());
  ep->mail_ctx.reserve(nctx);
  for (uint32_t s = 0; s < nctx; ++s) ep->mail_ctx.push_back(mail_.assign_context());

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
  mail_.start();
  for (auto& [pid, ep] : endpoints_) {
    Endpoint* e = ep.get();
    enqueue(e, [e] { e->process->on_start(); });
  }
  loop_.start();
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
  return loop_.on_loop_thread() || mail_.on_pool_thread();
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
  loop_.stop();
  // Loop shards are gone, so nothing publishes new deliveries; the pool
  // drains whatever is still queued before its consumers exit.
  mail_.stop();

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

// --- delivery --------------------------------------------------------------

void TcpNetwork::enqueue(Endpoint* ep, std::function<void()> fn) {
  // Tasks (on_start, post, timer fires) always run in context 0 so they
  // keep the single-context guarantee protocol clients rely on.
  if (mail_.shard(ep->mail_ctx[0])
          .push_item(runtime::MailItem{nullptr, {}, std::move(fn)})) {
    metrics_.on_mailbox_overflow();
  }
}

void TcpNetwork::deliver(Endpoint* ep, net::Envelope env) {
  net::IProcess* proc = ep->process;
  // shard_of runs on the loop thread by contract (pure function of the
  // envelope); the modulo keeps a buggy override in range.
  uint32_t shard = 0;
  if (ep->mail_ctx.size() > 1) {
    shard = proc->shard_of(env) % static_cast<uint32_t>(ep->mail_ctx.size());
  }
  if (mail_.shard(ep->mail_ctx[shard])
          .push_item(runtime::MailItem{proc, std::move(env), nullptr, shard})) {
    metrics_.on_mailbox_overflow();
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

bool TcpNetwork::read_conn(Conn* c) {
  for (;;) {
    if (!ensure_recv_space(c->ep, c->rd)) return false;
    Chunk& chunk = *c->rd.chunk;
    const ssize_t r =
        ::recv(c->fd, chunk.data.get() + chunk.filled, chunk.cap - chunk.filled, 0);
    if (r > 0) {
      chunk.filled += static_cast<size_t>(r);
      if (!parse_frames(c)) return false;
      continue;  // drain until EAGAIN; level-triggered epoll backs us up
    }
    if (r == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

/// Pops a pooled chunk of at least `min_cap` or allocates a fresh one. The
/// returned shared_ptr's deleter pushes the chunk back into the pool when
/// the last aliasing payload dies, so steady-state traffic recycles a small
/// working set of buffers instead of churning the allocator.
std::shared_ptr<TcpNetwork::Chunk> TcpNetwork::acquire_chunk(Endpoint* ep,
                                                             size_t min_cap) {
  std::shared_ptr<ChunkPool> pool = ep->pool;
  std::unique_ptr<Chunk> chunk;
  {
    MutexLock lock(pool->mu);
    for (auto it = pool->free_list.rbegin(); it != pool->free_list.rend(); ++it) {
      if ((*it)->cap < min_cap) continue;
      chunk = std::move(*it);
      pool->bytes -= chunk->cap;
      pool->free_list.erase(std::next(it).base());
      break;
    }
  }
  if (!chunk) {
    chunk = std::make_unique<Chunk>(min_cap);
    ep->chunks_allocated.fetch_add(1, std::memory_order_relaxed);
  }
  chunk->filled = 0;
  return std::shared_ptr<Chunk>(chunk.release(), [pool](Chunk* c) {
    std::unique_ptr<Chunk> owned(c);
    MutexLock lock(pool->mu);
    if (pool->bytes + owned->cap <= pool->max_bytes) {
      pool->bytes += owned->cap;
      pool->free_list.push_back(std::move(owned));
    }
  });
}

/// Guarantees room to recv into the chunk with the pending partial frame
/// (if any) kept contiguous. Chunks still referenced by delivered payloads
/// are never reused; unreferenced ones are recycled in place.
bool TcpNetwork::ensure_recv_space(Endpoint* ep, ConnState& st) {
  const size_t default_cap = std::max(opts_.recv_chunk_bytes, kMinRecv);
  if (!st.chunk) {
    st.chunk = acquire_chunk(ep, default_cap);
    return true;
  }
  Chunk& c = *st.chunk;
  const size_t unparsed = c.filled - st.parse_pos;

  // How much contiguous room the data at parse_pos needs: exactly the next
  // frame once its header is visible (parse_frames validated it), otherwise
  // a minimum read window. A read window on top of a visible frame would
  // judge a nearly complete large frame's chunk too small and copy the
  // whole frame into a new one.
  size_t needed = unparsed + kMinRecv;
  if (unparsed >= 4) {
    needed = size_t{4} + load_le32(c.data.get() + st.parse_pos);
  }
  if (c.cap - st.parse_pos >= needed && c.cap > c.filled) return true;

  if (unparsed == 0 && st.chunk.use_count() == 1) {
    // Nothing pending and no delivered view aliases us: recycle in place.
    c.filled = 0;
    st.parse_pos = 0;
    return true;
  }

  auto fresh = acquire_chunk(ep, std::max(default_cap, needed));
  if (unparsed > 0) {
    // The only copy on the receive path: a partial frame's tail carried
    // into the new chunk. Bounded by one chunk regardless of payload size
    // (tests assert this via TestHooks::recv_stats).
    std::memcpy(fresh->data.get(), c.data.get() + st.parse_pos, unparsed);
    ep->tail_bytes_copied.fetch_add(unparsed, std::memory_order_relaxed);
  }
  fresh->filled = unparsed;
  st.chunk = std::move(fresh);
  st.parse_pos = 0;
  return true;
}

/// Parses every complete frame at parse_pos, publishing envelopes whose
/// payloads alias the chunk straight into their delivery context. The
/// first authenticated frame on an accepted connection names the peer and
/// adopts the connection as the outbound route to it (full duplex).
/// Returns false to kill the connection (corrupt framing); forged MACs
/// only drop the frame.
bool TcpNetwork::parse_frames(Conn* conn) {
  Endpoint* ep = conn->ep;
  ConnState& st = conn->rd;
  Chunk& c = *st.chunk;
  for (;;) {
    const size_t avail = c.filled - st.parse_pos;
    if (avail < 4) return true;
    const uint8_t* base = c.data.get() + st.parse_pos;
    const uint32_t frame_len = load_le32(base);
    if (frame_len < kHeaderSize - 4 || frame_len > kMaxFrame) return false;
    if (avail < size_t{4} + frame_len) return true;  // incomplete

    Deserializer d(base + 4, kHeaderSize - 4);
    const ProcessId from = d.get_process_id();
    const ProcessId to = d.get_process_id();
    const uint64_t mac = d.get_u64();
    if (!d.ok() || !(to == ep->pid)) return false;  // misrouted or corrupt

    const BytesView payload(base + kHeaderSize, frame_len - (kHeaderSize - 4));
    st.parse_pos += size_t{4} + frame_len;

    if (!auth_.verify(from, to, payload, mac)) {
      metrics_.on_auth_failure();
      continue;  // drop the forged frame, keep the connection
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
    ep->payload_bytes_delivered.fetch_add(payload.size(),
                                          std::memory_order_relaxed);
    net::Envelope env;
    env.from = from;
    env.to = to;
    env.mac = mac;
    env.payload = Payload(st.chunk, payload);
    deliver(ep, std::move(env));
  }
}

// --- outbound --------------------------------------------------------------

void TcpNetwork::send_payload(const ProcessId& from, const ProcessId& to,
                              Payload payload) {
  if (!running_.load()) return;
  Endpoint* src = find(from);
  if (src == nullptr) return;

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

// --- timers / posting ------------------------------------------------------

void TcpNetwork::post(const ProcessId& pid, std::function<void()> fn) {
  if (Endpoint* ep = find(pid)) enqueue(ep, std::move(fn));
}

void TcpNetwork::post_after(const ProcessId& pid, TimeNs delta,
                            std::function<void()> fn) {
  if (delta == 0) {
    post(pid, std::move(fn));
    return;
  }
  Endpoint* ep = find(pid);
  if (ep == nullptr) return;
  // Timers live on the endpoint's home shard (absorbing the old dedicated
  // timer thread); pending timers are dropped at stop() by the LoopShard
  // contract, matching the Transport interface.
  loop_.shard(ep->home_shard)
      .run_after(delta, [this, ep, fn = std::move(fn)]() mutable {
        enqueue(ep, std::move(fn));
      });
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
