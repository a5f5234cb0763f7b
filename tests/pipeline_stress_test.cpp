// TSan-focused stress for the multiplexing client on the wall-clock
// runtime: one RegisterClient on ThreadNetwork sustaining 64+ concurrent
// operations across 8 objects while timers (deadline retransmissions) race
// message deliveries, plus application threads hammering the blocking
// facade concurrently. Labeled `slow`: the sanitizer CI jobs include it
// (`ctest --preset tsan`), quick local runs skip it (`ctest -LE slow`).
//
// The assertions are deliberately weak (completion counts, values from the
// written set); the real oracle is ThreadSanitizer observing the
// interleavings between the executor's loop shards (delays and timers),
// its mailbox consumers, and the blocking callers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/delay.h"
#include "registers/registers.h"
#include "runtime/thread_network.h"

namespace bftreg::registers {
namespace {

Bytes val(const std::string& s) { return Bytes(s.begin(), s.end()); }

class PipelineStress : public ::testing::Test {
 protected:
  static constexpr uint32_t kObjects = 8;

  PipelineStress() {
    config_ = SystemConfig::builder().n(5).f(1).build_for_bsr().value();
    runtime::RuntimeConfig rc;
    rc.seed = 13;
    rc.delay = std::make_unique<net::UniformDelay>(10'000, 200'000);  // 10-200us
    net_ = std::make_unique<runtime::ThreadNetwork>(std::move(rc));
    for (uint32_t i = 0; i < config_.n; ++i) {
      servers_.push_back(std::make_unique<RegisterServer>(
          ProcessId::server(i), config_, net_.get(), Bytes{}));
      net_->add_process(ProcessId::server(i), servers_.back().get());
    }
    // Tight deadline relative to the delay model: some attempts WILL miss
    // it, so timer retransmissions genuinely race live deliveries.
    ClientOptions opts;
    opts.retry.timeout = 2'000'000;  // 2ms
    opts.retry.max_retries = 5;
    client_ = std::make_unique<RegisterClient>(ProcessId::writer(0), config_,
                                               net_.get(), opts);
    net_->add_process(client_->id(), client_.get());
    net_->start();
  }

  ~PipelineStress() override { net_->stop(); }

  SystemConfig config_;
  std::unique_ptr<runtime::ThreadNetwork> net_;
  std::vector<std::unique_ptr<RegisterServer>> servers_;
  std::unique_ptr<RegisterClient> client_;
};

TEST_F(PipelineStress, SixtyFourInFlightOpsUnderRealThreads) {
  constexpr int kWaves = 5;
  constexpr int kOpsPerWave = 64;
  std::atomic<int> completed{0};
  std::atomic<int> timed_out{0};

  for (int wave = 0; wave < kWaves; ++wave) {
    net_->post(client_->id(), [&, wave] {
      for (int k = 0; k < kOpsPerWave / 2; ++k) {
        const uint32_t object = static_cast<uint32_t>(k) % kObjects;
        client_->write(object,
                       val("w" + std::to_string(wave) + "-" + std::to_string(k)),
                       [&](const WriteResult& w) {
                         if (w.timed_out) ++timed_out;
                         ++completed;
                       });
        client_->read(object, [&](const ReadResult& r) {
          if (r.timed_out) ++timed_out;
          ++completed;
        });
      }
    });
    // Overlap waves: don't wait for the previous one to finish.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (completed.load() < kWaves * kOpsPerWave &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Every operation completes -- by quorum or by deadline fallback -- and
  // the client table drains.
  EXPECT_EQ(completed.load(), kWaves * kOpsPerWave);
  EXPECT_EQ(client_->in_flight(), 0u);
}

TEST_F(PipelineStress, BlockingFacadeFromManyApplicationThreads) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 50;
  std::atomic<int> ok{0};

  std::vector<std::thread> apps;
  for (int t = 0; t < kThreads; ++t) {
    apps.emplace_back([&, t] {
      BlockingRegisterClient kv(*client_);
      const uint32_t object = static_cast<uint32_t>(t) % kObjects;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string v = "t" + std::to_string(t) + "-" + std::to_string(i);
        const auto w = kv.write(object, val(v));
        const auto r = kv.read(object);
        // Concurrent writers on the object: any thread's value (or, very
        // early, v0) is legal; freshness of OUR write implies a tag at
        // least as large as the one we wrote.
        if (!w.timed_out && !r.timed_out && !(r.tag < w.tag)) ++ok;
      }
    });
  }
  for (auto& t : apps) t.join();
  EXPECT_GT(ok.load(), 0);
  EXPECT_EQ(client_->in_flight(), 0u);
}

}  // namespace
}  // namespace bftreg::registers
