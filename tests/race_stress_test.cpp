// TSan-focused stress tests: hammer the concurrency seams of the wall-clock
// runtime -- ThreadNetwork::send vs. stop, racing first operations on
// ThreadCluster, and double-stop -- from many threads at once. Labeled
// `slow`: the sanitizer CI jobs include it (`ctest --preset tsan`), quick
// local runs skip it (`ctest -LE slow`).
//
// The assertions here are deliberately weak (counts, liveness); the real
// oracle is ThreadSanitizer observing the interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "harness/thread_cluster.h"
#include "net/delay.h"
#include "net/transport.h"
#include "runtime/thread_network.h"

namespace bftreg {
namespace {

/// Counts messages; replies to nothing.
class SinkProcess : public net::IProcess {
 public:
  void on_start() override {}
  void on_message(const net::Envelope&) override { received_.fetch_add(1); }
  uint64_t received() const { return received_.load(); }

 private:
  std::atomic<uint64_t> received_{0};
};

TEST(RaceStress, ConcurrentSendersAgainstStop) {
  constexpr size_t kProcs = 4;
  constexpr size_t kSenders = 8;
  constexpr int kMsgsPerSender = 2000;

  runtime::RuntimeConfig rc;
  rc.seed = 7;
  // A delay model keeps the scheduler thread and its queue in play.
  rc.delay = std::make_unique<net::UniformDelay>(0, 20'000);  // 0-20us
  runtime::ThreadNetwork net(std::move(rc));

  std::vector<SinkProcess> procs(kProcs);
  for (size_t i = 0; i < kProcs; ++i) {
    net.add_process(ProcessId::server(static_cast<uint32_t>(i)), &procs[i]);
  }
  net.start();

  std::atomic<bool> go{false};
  std::vector<std::thread> senders;
  for (size_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kMsgsPerSender; ++i) {
        const auto from = ProcessId::server(static_cast<uint32_t>(s % kProcs));
        const auto to =
            ProcessId::server(static_cast<uint32_t>((s + i + 1) % kProcs));
        net.send(from, to, Bytes{1, 2, 3, static_cast<uint8_t>(i)});
      }
    });
  }
  go.store(true);
  // Stop while senders are still pushing: sends racing shutdown must be
  // dropped or delivered cleanly, never crash or corrupt.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net.stop();
  for (auto& t : senders) t.join();

  uint64_t delivered = 0;
  for (const auto& p : procs) delivered += p.received();
  EXPECT_LE(delivered, static_cast<uint64_t>(kSenders) * kMsgsPerSender);
  // stop() again must be a no-op (idempotence contract).
  net.stop();
}

TEST(RaceStress, ThreadClusterRacingFirstOperations) {
  harness::ThreadClusterOptions opts;
  opts.protocol = registers::ProtocolVariant::kBsr;
  opts.config.n = 5;
  opts.config.f = 1;
  opts.config.initial_value = Bytes{0};
  opts.num_writers = 2;
  opts.num_readers = 2;
  opts.seed = 11;

  harness::ThreadCluster cluster(std::move(opts));

  // Four client threads issue their first operation at once: the implicit
  // start() races by design (call_once picks a winner). Operations block
  // until the protocol completes, so finishing all of them is the liveness
  // assertion.
  std::vector<std::thread> clients;
  std::atomic<int> completed{0};
  for (int w = 0; w < 2; ++w) {
    clients.emplace_back([&, w] {
      for (int i = 0; i < 10; ++i) {
        const auto r = cluster.write(static_cast<size_t>(w),
                                     Bytes{static_cast<uint8_t>(w), 1});
        if (r.completed_at >= r.invoked_at) completed.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    clients.emplace_back([&, r] {
      for (int i = 0; i < 10; ++i) {
        const auto res = cluster.read(static_cast<size_t>(r));
        if (res.completed_at >= res.invoked_at) completed.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(completed.load(), 40);

  // Concurrent double-stop: only the winner shuts down, the rest no-op.
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) stoppers.emplace_back([&] { cluster.stop(); });
  for (auto& t : stoppers) t.join();
}

}  // namespace
}  // namespace bftreg
