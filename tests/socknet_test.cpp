// TCP loopback transport tests: frame transport, authentication, and the
// full BSR protocol running over real kernel sockets.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <thread>

#include "registers/registers.h"
#include "runtime/thread_network.h"
#include "socknet/tcp_network.h"

namespace bftreg::socknet {
namespace {

class Counter final : public net::IProcess {
 public:
  explicit Counter(ProcessId self, net::Transport* transport = nullptr)
      : self_(self), transport_(transport) {}

  void on_start() override { started_.store(true); }

  void on_message(const net::Envelope& env) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      payloads_.push_back(env.payload.to_bytes());
    }
    count_.fetch_add(1);
    if (transport_ != nullptr && !env.payload.empty() && env.payload[0] == 'P') {
      transport_->send(self_, env.from, Bytes{'R'});
    }
  }

  bool started() const { return started_.load(); }
  int count() const { return count_.load(); }
  Bytes payload(size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    return payloads_.at(i);
  }

 private:
  ProcessId self_;
  net::Transport* transport_;
  std::atomic<bool> started_{false};
  std::atomic<int> count_{0};
  std::mutex mu_;
  std::vector<Bytes> payloads_;
};

bool wait_for(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(TcpNetworkTest, BindsDistinctEphemeralPorts) {
  TcpNetwork net(TcpConfig{});
  Counter a(ProcessId::server(0));
  Counter b(ProcessId::server(1));
  net.add_process(ProcessId::server(0), &a);
  net.add_process(ProcessId::server(1), &b);
  EXPECT_NE(net.port_of(ProcessId::server(0)), 0);
  EXPECT_NE(net.port_of(ProcessId::server(1)), 0);
  EXPECT_NE(net.port_of(ProcessId::server(0)), net.port_of(ProcessId::server(1)));
}

TEST(TcpNetworkTest, DeliversFramesOverLoopback) {
  TcpNetwork net(TcpConfig{});
  Counter a(ProcessId::writer(0));
  Counter b(ProcessId::server(0));
  net.add_process(ProcessId::writer(0), &a);
  net.add_process(ProcessId::server(0), &b);
  net.start();
  EXPECT_TRUE(wait_for([&] { return a.started() && b.started(); }));

  net.send(ProcessId::writer(0), ProcessId::server(0), Bytes{1, 2, 3, 4});
  EXPECT_TRUE(wait_for([&] { return b.count() == 1; }));
  EXPECT_EQ(b.payload(0), (Bytes{1, 2, 3, 4}));
  net.stop();
}

TEST(TcpNetworkTest, RequestReplyOverSockets) {
  TcpNetwork net(TcpConfig{});
  Counter client(ProcessId::reader(0), &net);
  Counter server(ProcessId::server(0), &net);
  net.add_process(ProcessId::reader(0), &client);
  net.add_process(ProcessId::server(0), &server);
  net.start();

  net.send(ProcessId::reader(0), ProcessId::server(0), Bytes{'P'});
  EXPECT_TRUE(wait_for([&] { return client.count() == 1; }));
  EXPECT_EQ(client.payload(0), (Bytes{'R'}));
  net.stop();
}

TEST(TcpNetworkTest, ManyMessagesArriveInOrderPerConnection) {
  TcpNetwork net(TcpConfig{});
  Counter dst(ProcessId::server(0));
  net.add_process(ProcessId::server(0), &dst);
  Counter src(ProcessId::writer(0));
  net.add_process(ProcessId::writer(0), &src);
  net.start();

  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    net.send(ProcessId::writer(0), ProcessId::server(0),
             Bytes{static_cast<uint8_t>(i)});
  }
  EXPECT_TRUE(wait_for([&] { return dst.count() == kCount; }));
  // TCP gives per-connection FIFO: payloads arrive in send order.
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(dst.payload(static_cast<size_t>(i))[0], static_cast<uint8_t>(i));
  }
  net.stop();
}

TEST(TcpNetworkTest, LargePayloadRoundTrip) {
  TcpNetwork net(TcpConfig{});
  Counter dst(ProcessId::server(0));
  net.add_process(ProcessId::server(0), &dst);
  Counter src(ProcessId::writer(0));
  net.add_process(ProcessId::writer(0), &src);
  net.start();

  Bytes big(1 << 20);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i * 13);
  net.send(ProcessId::writer(0), ProcessId::server(0), big);
  EXPECT_TRUE(wait_for([&] { return dst.count() == 1; }));
  EXPECT_EQ(dst.payload(0), big);
  net.stop();
}

TEST(TcpNetworkTest, StopIsIdempotent) {
  TcpNetwork net(TcpConfig{});
  Counter a(ProcessId::server(0));
  net.add_process(ProcessId::server(0), &a);
  net.start();
  net.stop();
  net.stop();
}

TEST(TcpNetworkTest, StopBeforeStartIsANoOp) {
  TcpNetwork net(TcpConfig{});
  Counter a(ProcessId::server(0));
  net.add_process(ProcessId::server(0), &a);
  net.stop();  // documented no-op: nothing running, nothing to join
  EXPECT_FALSE(a.started());
  // The network is still usable afterwards.
  net.start();
  EXPECT_TRUE(wait_for([&] { return a.started(); }));
  net.stop();
}

/// Descriptors this process holds open right now.
size_t open_fds() {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(TcpNetworkTest, StopClosesConnectionsHandedOffDuringShutdown) {
  // stop() stops the loop shards one at a time. While the listener's home
  // shard still runs, it accepts connections and hands them to shards that
  // already ran their final drain. Those hand-offs are dropped, and each
  // must close its fd. A dialer connects throughout stop() to hit that
  // window; a listener on the shard stopped last leaves it widest.
  TcpConfig cfg;
  cfg.options.loop_shards = 4;
  ProcessId listener = ProcessId::server(0);
  {
    TcpNetwork net(cfg);
    for (uint32_t i = 0; i < 64; ++i) {
      if (net.test_hooks().loop_shard_of(ProcessId::server(i)) ==
          cfg.options.loop_shards - 1) {
        listener = ProcessId::server(i);
        break;
      }
    }
  }
  const size_t before = open_fds();
  for (int cycle = 0; cycle < 60; ++cycle) {
    {
      TcpNetwork net(cfg);
      Counter sink(listener);
      net.add_process(listener, &sink);
      net.start();
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(net.port_of(listener));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      std::atomic<bool> dialing{true};
      std::thread dialer([&] {
        while (dialing.load()) {
          const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
          if (fd < 0) continue;
          ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
          // Abortive close: no TIME_WAIT, so the dialer never runs the
          // host out of ephemeral ports.
          const linger abort{1, 0};
          ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
          ::close(fd);
        }
      });
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      net.stop();
      dialing.store(false);
      dialer.join();
    }
    ASSERT_EQ(open_fds(), before) << "cycle " << cycle;
  }
}

TEST(TcpNetworkTest, ShardHashIsStableAcrossInstances) {
  // loop_shard_of must be a pure function of (pid, loop_shards): the same
  // pid lands on the same shard every call and in every network built with
  // the same shard count, so tests and tools can reason about placement.
  TcpConfig cfg;
  cfg.options.loop_shards = 4;
  std::vector<ProcessId> pids;
  for (uint32_t i = 0; i < 16; ++i) pids.push_back(ProcessId::server(i));
  for (uint32_t i = 0; i < 16; ++i) pids.push_back(ProcessId::reader(i));

  std::vector<size_t> first;
  {
    TcpNetwork net(cfg);
    std::deque<Counter> procs;
    for (const auto& pid : pids) procs.emplace_back(pid);
    for (size_t i = 0; i < pids.size(); ++i) {
      net.add_process(pids[i], &procs[i], /*listen=*/false);
    }
    for (const auto& pid : pids) {
      const size_t s = net.test_hooks().loop_shard_of(pid);
      EXPECT_LT(s, cfg.options.loop_shards);
      EXPECT_EQ(s, net.test_hooks().loop_shard_of(pid));  // stable per call
      first.push_back(s);
    }
  }
  {
    TcpNetwork net(cfg);
    std::deque<Counter> procs;
    for (const auto& pid : pids) procs.emplace_back(pid);
    for (size_t i = 0; i < pids.size(); ++i) {
      net.add_process(pids[i], &procs[i], /*listen=*/false);
    }
    for (size_t i = 0; i < pids.size(); ++i) {
      EXPECT_EQ(net.test_hooks().loop_shard_of(pids[i]), first[i]);
    }
  }
  // The hash spreads: 32 pids over 4 shards should not collapse onto one.
  std::set<size_t> used(first.begin(), first.end());
  EXPECT_GT(used.size(), 1u);
}

TEST(TcpNetworkTest, ListenLessClientGetsRepliesOverItsOwnConnection) {
  // A listen=false endpoint has no acceptor: replies must ride the duplex
  // connection the client itself dialed (adopted by the server on the
  // first authenticated frame).
  TcpNetwork net(TcpConfig{});
  Counter client(ProcessId::reader(7), &net);
  Counter server(ProcessId::server(0), &net);
  net.add_process(ProcessId::reader(7), &client, /*listen=*/false);
  net.add_process(ProcessId::server(0), &server);
  EXPECT_EQ(net.port_of(ProcessId::reader(7)), 0);
  net.start();

  net.send(ProcessId::reader(7), ProcessId::server(0), Bytes{'P'});
  EXPECT_TRUE(wait_for([&] { return client.count() == 1; }));
  EXPECT_EQ(client.payload(0), (Bytes{'R'}));
  net.stop();
}

TEST(TcpNetworkTest, PartialWriteResumesAcrossEpolloutWakes) {
  // Freeze the receiver's read path so the sender's socket buffer fills:
  // sendmsg goes short, the flush arms EPOLLOUT, and resuming reads lets
  // the kernel drain -- every queued byte must then arrive via readiness
  // wakes picking up mid-frame (wr_offset).
  TcpConfig cfg;
  cfg.options.max_outbox_bytes = 256 * 1024 * 1024;  // don't shed in this test
  TcpNetwork net(cfg);
  Counter src(ProcessId::writer(0));
  Counter dst(ProcessId::server(0));
  net.add_process(ProcessId::writer(0), &src);
  net.add_process(ProcessId::server(0), &dst);
  net.start();
  ASSERT_TRUE(wait_for([&] { return src.started() && dst.started(); }));

  // Establish the connection first so pause_reads has a conn to disarm.
  net.send(ProcessId::writer(0), ProcessId::server(0), Bytes{'x'});
  ASSERT_TRUE(wait_for([&] { return dst.count() == 1; }));

  net.test_hooks().pause_reads(ProcessId::server(0), true);
  // Large payloads: far beyond any socket buffer, so writes MUST go short.
  constexpr int kMsgs = 8;
  Bytes big(4 << 20);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i * 31);
  for (int i = 0; i < kMsgs; ++i) {
    net.send(ProcessId::writer(0), ProcessId::server(0), big);
  }
  // The writer blocks against the frozen receiver and parks on EPOLLOUT.
  ASSERT_TRUE(wait_for([&] {
    return net.test_hooks().send_stats(ProcessId::writer(0)).epollout_arms > 0;
  }));

  net.test_hooks().pause_reads(ProcessId::server(0), false);
  ASSERT_TRUE(wait_for([&] { return dst.count() == 1 + kMsgs; }, 20000));
  EXPECT_EQ(dst.payload(kMsgs), big);

  const auto stats = net.test_hooks().send_stats(ProcessId::writer(0));
  EXPECT_GT(stats.epollout_arms, 0u);
  EXPECT_GT(stats.epollout_wakes, 0u);
  EXPECT_GT(stats.partial_writes, 0u);
  EXPECT_EQ(net.metrics().snapshot().messages_dropped, 0u);
  net.stop();
}

TEST(TcpNetworkTest, OutboxShedIsCountedInNetworkMetrics) {
  TcpConfig cfg;
  cfg.options.max_outbox_bytes = 4096;
  TcpNetwork net(cfg);
  Counter src(ProcessId::writer(0));
  Counter dst(ProcessId::server(0));
  net.add_process(ProcessId::writer(0), &src);
  net.add_process(ProcessId::server(0), &dst);
  net.start();
  ASSERT_TRUE(wait_for([&] { return src.started() && dst.started(); }));

  net.test_hooks().pause_writes(ProcessId::writer(0), true);
  const Bytes payload(1024, 0x11);
  const uint64_t before = net.metrics().snapshot().messages_dropped;
  for (int i = 0; i < 32; ++i) {
    net.send(ProcessId::writer(0), ProcessId::server(0), payload);
  }
  // Every shed frame shows up in the shared transport metrics, so the
  // harness sees backpressure without transport-specific hooks.
  const uint64_t after = net.metrics().snapshot().messages_dropped;
  EXPECT_GT(after, before);
  net.test_hooks().pause_writes(ProcessId::writer(0), false);
  net.stop();
}

TEST(TcpNetworkTest, SenderReconnectsAfterPeerSocketDies) {
  TcpNetwork net(TcpConfig{});
  Counter src(ProcessId::writer(0));
  Counter dst(ProcessId::server(0));
  net.add_process(ProcessId::writer(0), &src);
  net.add_process(ProcessId::server(0), &dst);
  net.start();

  net.send(ProcessId::writer(0), ProcessId::server(0), Bytes{'a'});
  ASSERT_TRUE(wait_for([&] { return dst.count() == 1; }));

  // Kill every connection the destination has accepted: the sender's cached
  // fd is now dead. Frames in flight when the writer first notices may be
  // dropped (reliable channels are per-connection), but the writer must
  // reconnect and later sends must flow again.
  net.test_hooks().shutdown_inbound(ProcessId::server(0));
  const int before = dst.count();
  ASSERT_TRUE(wait_for([&] {
    net.send(ProcessId::writer(0), ProcessId::server(0), Bytes{'b'});
    return dst.count() > before;
  }));
  net.stop();
}

TEST(TcpNetworkTest, FullOutboxShedsAndDrainsAfterResume) {
  TcpConfig cfg;
  cfg.options.max_outbox_bytes = 4096;  // a handful of frames
  TcpNetwork net(cfg);
  Counter src(ProcessId::writer(0));
  Counter dst(ProcessId::server(0));
  net.add_process(ProcessId::writer(0), &src);
  net.add_process(ProcessId::server(0), &dst);
  net.start();
  ASSERT_TRUE(wait_for([&] { return src.started() && dst.started(); }));

  net.test_hooks().pause_writes(ProcessId::writer(0), true);
  constexpr int kSends = 64;
  const Bytes payload(256, 0x5a);
  for (int i = 0; i < kSends; ++i) {
    net.send(ProcessId::writer(0), ProcessId::server(0), payload);
  }
  const uint64_t dropped = net.metrics().snapshot().messages_dropped;
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, static_cast<uint64_t>(kSends));  // cap admits some
  // The queue respects the cap (one in-flight frame of slack: a frame is
  // only shed if the queue is already non-empty).
  EXPECT_LE(net.test_hooks().outbox_bytes(ProcessId::writer(0),
                                          ProcessId::server(0)),
            cfg.options.max_outbox_bytes + payload.size() + 32);

  net.test_hooks().pause_writes(ProcessId::writer(0), false);
  // Everything that was not shed drains to the destination.
  EXPECT_TRUE(wait_for(
      [&] { return dst.count() == kSends - static_cast<int>(dropped); }));
  net.stop();
}

TEST(TcpNetworkTest, DeliveryCopiesAtMostOneChunkTail) {
  TcpNetwork net(TcpConfig{});
  Counter src(ProcessId::writer(0));
  Counter dst(ProcessId::server(0));
  net.add_process(ProcessId::writer(0), &src);
  net.add_process(ProcessId::server(0), &dst);
  net.start();

  // 12 MiB of payload through the receive path: the only bytes the
  // transport may copy between kernel and handler are partial-frame tails
  // carried across a chunk roll -- bounded by one chunk per roll, never
  // proportional to payload size.
  constexpr int kMsgs = 4;
  Bytes big(3 << 20);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i * 7);
  for (int i = 0; i < kMsgs; ++i) {
    net.send(ProcessId::writer(0), ProcessId::server(0), big);
  }
  ASSERT_TRUE(wait_for([&] { return dst.count() == kMsgs; }));
  EXPECT_EQ(dst.payload(kMsgs - 1), big);

  const auto stats = net.test_hooks().recv_stats(ProcessId::server(0));
  EXPECT_EQ(stats.payload_bytes_delivered, big.size() * kMsgs);
  EXPECT_LE(stats.tail_bytes_copied,
            static_cast<uint64_t>(kMsgs) * TcpConfig{}.options.recv_chunk_bytes);
  EXPECT_LT(stats.tail_bytes_copied, stats.payload_bytes_delivered / 10);
  net.stop();
}

/// Records the address of each delivered payload's first byte, so tests can
/// prove delivery aliased a shared buffer instead of copying it.
class PointerProbe final : public net::IProcess {
 public:
  void on_message(const net::Envelope& env) override {
    std::lock_guard<std::mutex> lock(mu_);
    seen_.push_back(env.payload.data());
  }
  std::vector<const uint8_t*> seen() {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

 private:
  std::mutex mu_;
  std::vector<const uint8_t*> seen_;
};

TEST(ThreadNetworkZeroCopyTest, FanOutSharesOnePayloadBuffer) {
  runtime::ThreadNetwork net(runtime::RuntimeConfig{});
  PointerProbe b, c;
  Counter a(ProcessId::writer(0));
  net.add_process(ProcessId::writer(0), &a);
  net.add_process(ProcessId::server(0), &b);
  net.add_process(ProcessId::server(1), &c);
  net.start();

  Bytes data(4096, 0x7e);
  const uint8_t* origin = data.data();
  const Payload shared(std::move(data));
  net.send_payload(ProcessId::writer(0), ProcessId::server(0), shared);
  net.send_payload(ProcessId::writer(0), ProcessId::server(1), shared);
  ASSERT_TRUE(
      wait_for([&] { return b.seen().size() == 1 && c.seen().size() == 1; }));
  // Zero copies anywhere on the path: both deliveries alias the very bytes
  // the sender built (Payload(Bytes) is pointer-preserving, and the
  // in-memory transport moves the refcounted view through the mailbox).
  EXPECT_EQ(b.seen()[0], origin);
  EXPECT_EQ(c.seen()[0], origin);
  net.stop();
}

// The headline: the full BSR register protocol, unmodified, over real TCP.
TEST(TcpNetworkTest, BsrRegisterOverRealSockets) {
  TcpNetwork net(TcpConfig{});
  registers::SystemConfig cfg;
  cfg.n = 5;
  cfg.f = 1;
  std::vector<std::unique_ptr<registers::RegisterServer>> servers;
  for (uint32_t i = 0; i < cfg.n; ++i) {
    servers.push_back(std::make_unique<registers::RegisterServer>(
        ProcessId::server(i), cfg, &net, Bytes{}));
    net.add_process(ProcessId::server(i), servers.back().get());
  }
  registers::RegisterClient writer(ProcessId::writer(0), cfg, &net);
  registers::RegisterClient reader(ProcessId::reader(0), cfg, &net);
  net.add_process(ProcessId::writer(0), &writer);
  net.add_process(ProcessId::reader(0), &reader);
  net.start();

  std::promise<void> wrote;
  net.post(ProcessId::writer(0), [&] {
    writer.write(0, Bytes{'t', 'c', 'p'},
                 [&](const registers::WriteResult&) { wrote.set_value(); });
  });
  ASSERT_EQ(wrote.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);

  std::promise<Bytes> read_value;
  net.post(ProcessId::reader(0), [&] {
    reader.read(0, [&](const registers::ReadResult& r) {
      read_value.set_value(r.value);
    });
  });
  auto fut = read_value.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(fut.get(), (Bytes{'t', 'c', 'p'}));
  net.stop();
}

TEST(TcpNetworkTest, BcsrRegisterOverRealSockets) {
  TcpNetwork net(TcpConfig{});
  registers::SystemConfig cfg;
  cfg.n = 6;
  cfg.f = 1;
  const auto initial = registers::bcsr_initial_elements(cfg);
  std::vector<std::unique_ptr<registers::RegisterServer>> servers;
  for (uint32_t i = 0; i < cfg.n; ++i) {
    servers.push_back(std::make_unique<registers::RegisterServer>(
        ProcessId::server(i), cfg, &net, initial[i]));
    net.add_process(ProcessId::server(i), servers.back().get());
  }
  const registers::ClientOptions bcsr{registers::ProtocolVariant::kBcsr};
  registers::RegisterClient writer(ProcessId::writer(0), cfg, &net, bcsr);
  registers::RegisterClient reader(ProcessId::reader(0), cfg, &net, bcsr);
  net.add_process(ProcessId::writer(0), &writer);
  net.add_process(ProcessId::reader(0), &reader);
  net.start();

  Bytes payload(10'000);
  for (size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<uint8_t>(i);

  std::promise<void> wrote;
  net.post(ProcessId::writer(0), [&] {
    writer.write(0, payload,
                 [&](const registers::WriteResult&) { wrote.set_value(); });
  });
  ASSERT_EQ(wrote.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);

  std::promise<Bytes> got;
  net.post(ProcessId::reader(0), [&] {
    reader.read(0,
                [&](const registers::ReadResult& r) { got.set_value(r.value); });
  });
  auto fut = got.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  EXPECT_EQ(fut.get(), payload);
  net.stop();
}

}  // namespace
}  // namespace bftreg::socknet
