// Tests for the in-memory real-time transport.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "harness/thread_cluster.h"
#include "net/transport.h"
#include "runtime/thread_network.h"

namespace bftreg::runtime {
namespace {

class Counter final : public net::IProcess {
 public:
  explicit Counter(ProcessId self, net::Transport* transport = nullptr)
      : self_(self), transport_(transport) {}

  void on_start() override { started_.store(true); }

  void on_message(const net::Envelope& env) override {
    count_.fetch_add(1);
    last_payload_size_.store(env.payload.size());
    if (transport_ != nullptr && !env.payload.empty() && env.payload[0] == 'P') {
      transport_->send(self_, env.from, Bytes{'R'});
    }
  }

  bool started() const { return started_.load(); }
  int count() const { return count_.load(); }
  size_t last_payload_size() const { return last_payload_size_.load(); }

 private:
  ProcessId self_;
  net::Transport* transport_;
  std::atomic<bool> started_{false};
  std::atomic<int> count_{0};
  std::atomic<size_t> last_payload_size_{0};
};

bool wait_for(const std::function<bool()>& pred, int timeout_ms = 3000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(ThreadNetworkTest, StartsProcessesAndDeliversMessages) {
  ThreadNetwork net(RuntimeConfig{});
  Counter a(ProcessId::writer(0));
  Counter b(ProcessId::server(0));
  net.add_process(ProcessId::writer(0), &a);
  net.add_process(ProcessId::server(0), &b);
  net.start();

  EXPECT_TRUE(wait_for([&] { return a.started() && b.started(); }));
  net.send(ProcessId::writer(0), ProcessId::server(0), Bytes(32, 7));
  EXPECT_TRUE(wait_for([&] { return b.count() == 1; }));
  EXPECT_EQ(b.last_payload_size(), 32u);
  net.stop();
}

TEST(ThreadNetworkTest, RequestReplyAcrossThreads) {
  ThreadNetwork net(RuntimeConfig{});
  Counter client(ProcessId::reader(0), &net);
  Counter server(ProcessId::server(0), &net);
  net.add_process(ProcessId::reader(0), &client);
  net.add_process(ProcessId::server(0), &server);
  net.start();

  net.send(ProcessId::reader(0), ProcessId::server(0), Bytes{'P'});
  EXPECT_TRUE(wait_for([&] { return client.count() == 1; }));
  net.stop();
}

TEST(ThreadNetworkTest, ManyMessagesAllDelivered) {
  ThreadNetwork net(RuntimeConfig{});
  Counter dst(ProcessId::server(0));
  net.add_process(ProcessId::server(0), &dst);
  net.start();
  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    net.send(ProcessId::writer(0), ProcessId::server(0), Bytes{1});
  }
  EXPECT_TRUE(wait_for([&] { return dst.count() == kCount; }));
  net.stop();
  EXPECT_EQ(net.metrics().snapshot().messages_delivered,
            static_cast<uint64_t>(kCount));
}

TEST(ThreadNetworkTest, DelayedDeliveryArrivesLater) {
  RuntimeConfig cfg;
  cfg.delay = std::make_unique<net::FixedDelay>(20'000'000);  // 20 ms
  ThreadNetwork net(std::move(cfg));
  Counter dst(ProcessId::server(0));
  net.add_process(ProcessId::server(0), &dst);
  net.start();

  const auto t0 = std::chrono::steady_clock::now();
  net.send(ProcessId::writer(0), ProcessId::server(0), Bytes{1});
  EXPECT_TRUE(wait_for([&] { return dst.count() == 1; }));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_GE(elapsed, 15);
  net.stop();
}

TEST(ThreadNetworkTest, CrashedProcessStopsReceivingAndSending) {
  ThreadNetwork net(RuntimeConfig{});
  Counter a(ProcessId::server(0));
  Counter b(ProcessId::server(1));
  net.add_process(ProcessId::server(0), &a);
  net.add_process(ProcessId::server(1), &b);
  net.start();

  net.mark_crashed(ProcessId::server(0));
  net.send(ProcessId::writer(0), ProcessId::server(0), Bytes{1});
  net.send(ProcessId::server(0), ProcessId::server(1), Bytes{1});
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(a.count(), 0);
  EXPECT_EQ(b.count(), 0);
  net.stop();
}

size_t threads_in_process() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(ThreadNetworkTest, ClusterRunsOnTheExecutorThreadBudget) {
  // n = 5 servers with 4 delivery shards each plus 4 clients: 24 delivery
  // contexts, all multiplexed onto the executor's loop shards and mailbox
  // consumers.
  const auto budget = net::TransportOptions{}.resolved();
  // ThreadSanitizer starts a background thread of its own with the first
  // thread; start one first so `before` already counts it.
  std::thread([] {}).join();
  const size_t before = threads_in_process();
  {
    harness::ThreadClusterOptions o;
    o.config.n = 5;
    o.config.f = 1;
    o.config.server_shards = 4;
    o.num_writers = 2;
    o.num_readers = 2;
    harness::ThreadCluster cluster(o);
    cluster.write(0, Bytes{1});
    EXPECT_EQ(cluster.read(0).value, (Bytes{1}));
    EXPECT_LE(threads_in_process() - before,
              budget.loop_shards + budget.mailbox_shards);
  }
  EXPECT_EQ(threads_in_process(), before);
}

TEST(ThreadNetworkTest, StopIsIdempotentAndJoinsCleanly) {
  ThreadNetwork net(RuntimeConfig{});
  Counter a(ProcessId::server(0));
  net.add_process(ProcessId::server(0), &a);
  net.start();
  net.stop();
  net.stop();  // no deadlock, no crash
}

}  // namespace
}  // namespace bftreg::runtime
