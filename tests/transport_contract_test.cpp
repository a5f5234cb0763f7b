// The Transport timer and crash contract (net/transport.h), checked on both
// real-time transports, which share one executor (runtime/executor.h):
//
//   * post_after runs in the process's context no earlier than `delta`,
//     never concurrently with its handlers, and with sub-millisecond
//     precision (a millisecond-rounded timer fires >= 1000 us late);
//   * timers pending at stop() are dropped and do not delay it;
//   * a crashed process receives nothing and its timers do not fire, and
//     after quiesce none of its handlers is running;
//   * replace_process + revive delivers to the new object, and no task or
//     timer of the old object runs after it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "net/delay.h"
#include "net/transport.h"
#include "runtime/thread_network.h"
#include "socknet/tcp_network.h"

namespace bftreg {
namespace {

using Clock = std::chrono::steady_clock;

/// Counts deliveries and flags any overlap between its handlers and the
/// timer closures run in its context. With `hold` set, a delivery spins
/// inside its handler until the flag clears.
class Probe final : public net::IProcess {
 public:
  void on_message(const net::Envelope&) override {
    Enter enter(*this);
    delivered_.fetch_add(1);
    inside_handler_.store(true);
    while (hold_.load()) std::this_thread::yield();
    inside_handler_.store(false);
  }

  /// Wraps `fn` so it runs marked as being in this process's context.
  std::function<void()> in_context(std::function<void()> fn) {
    return [this, fn = std::move(fn)] {
      Enter enter(*this);
      fn();
    };
  }

  int delivered() const { return delivered_.load(); }
  bool inside_handler() const { return inside_handler_.load(); }
  bool overlapped() const { return overlapped_.load(); }
  void hold(bool on) { hold_.store(on); }

 private:
  struct Enter {
    explicit Enter(Probe& p) : p_(p) {
      if (p_.inside_.fetch_add(1) != 0) p_.overlapped_.store(true);
    }
    ~Enter() { p_.inside_.fetch_sub(1); }
    Probe& p_;
  };

  std::atomic<int> delivered_{0};
  std::atomic<int> inside_{0};
  std::atomic<bool> inside_handler_{false};
  std::atomic<bool> overlapped_{false};
  std::atomic<bool> hold_{false};
};

bool wait_for(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

double micros_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <typename Net>
std::unique_ptr<Net> make_net();

template <>
std::unique_ptr<runtime::ThreadNetwork> make_net() {
  return std::make_unique<runtime::ThreadNetwork>(runtime::RuntimeConfig{});
}

template <>
std::unique_ptr<socknet::TcpNetwork> make_net() {
  return std::make_unique<socknet::TcpNetwork>(socknet::TcpConfig{});
}

template <typename Net>
class TransportContractTest : public ::testing::Test {
 protected:
  const ProcessId kTarget = ProcessId::server(0);
  const ProcessId kSender = ProcessId::server(1);

  void SetUp() override {
    net_ = make_net<Net>();
    net_->add_process(kTarget, &target_);
    net_->add_process(kSender, &sender_);
    net_->start();
  }
  void TearDown() override { net_->stop(); }

  void send_to_target(int count) {
    for (int i = 0; i < count; ++i) net_->send(kSender, kTarget, Bytes{1});
  }

  std::unique_ptr<Net> net_;
  Probe target_;
  Probe sender_;
};

class TransportNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return std::is_same_v<T, runtime::ThreadNetwork> ? "ThreadNetwork"
                                                     : "TcpNetwork";
  }
};

using Transports = ::testing::Types<runtime::ThreadNetwork, socknet::TcpNetwork>;
TYPED_TEST_SUITE(TransportContractTest, Transports, TransportNames);

TYPED_TEST(TransportContractTest, TimersNeverFireEarlyOrBesideHandlers) {
  constexpr int kTimers = 40;
  std::atomic<int> fired{0};
  std::atomic<int> early{0};
  for (int i = 0; i < kTimers; ++i) {
    const TimeNs delta = 50'000 + 100'000 * (i % 20);  // 50 us .. 1.95 ms
    const auto t0 = Clock::now();
    this->net_->post_after(
        this->kTarget, delta, this->target_.in_context([&, t0, delta] {
          if (micros_since(t0) * 1000.0 < static_cast<double>(delta)) {
            early.fetch_add(1);
          }
          fired.fetch_add(1);
        }));
  }
  // Deliveries keep arriving while the timers fire.
  this->send_to_target(200);
  ASSERT_TRUE(wait_for([&] {
    return fired.load() == kTimers && this->target_.delivered() == 200;
  }));
  EXPECT_EQ(early.load(), 0);
  EXPECT_FALSE(this->target_.overlapped());
}

TYPED_TEST(TransportContractTest, SequentialTimersKeepSubMillisecondPrecision) {
  // 50 timers of 100 us, each armed by the previous one's fire, on an idle
  // network: the lateness is the executor's timer precision.
  constexpr int kTimers = 50;
  constexpr TimeNs kDelta = 100'000;
  std::vector<double> lateness_us;
  std::promise<void> done;
  std::function<void()> arm = [&] {
    const auto t0 = Clock::now();
    this->net_->post_after(this->kTarget, kDelta, [&, t0] {
      lateness_us.push_back(micros_since(t0) - kDelta / 1000.0);
      if (lateness_us.size() == kTimers) {
        done.set_value();
      } else {
        arm();
      }
    });
  };
  this->net_->post(this->kTarget, arm);
  ASSERT_EQ(done.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_GE(*std::min_element(lateness_us.begin(), lateness_us.end()), 0.0);
  EXPECT_LT(median(lateness_us), 800.0);
}

TYPED_TEST(TransportContractTest, PendingTimerIsDroppedAndDoesNotDelayStop) {
  std::atomic<bool> ran{false};
  this->net_->post_after(this->kTarget, 10'000'000'000,  // 10 s
                         [&] { ran.store(true); });
  const auto t0 = Clock::now();
  this->net_->stop();
  EXPECT_LT(micros_since(t0), 1e6);
  EXPECT_FALSE(ran.load());
}

TYPED_TEST(TransportContractTest, CrashedProcessGetsNothingAndQuiesceWaits) {
  // A timer armed before the crash that falls due after it must not fire.
  std::atomic<bool> old_timer{false};
  const auto armed = Clock::now();
  this->net_->post_after(this->kTarget, 300'000'000, [&] { old_timer.store(true); });

  // Park one delivery inside the handler, then crash the process under it.
  this->target_.hold(true);
  this->send_to_target(1);
  ASSERT_TRUE(wait_for([&] { return this->target_.inside_handler(); }));
  this->net_->mark_crashed(this->kTarget);
  auto quiesced = std::async(std::launch::async,
                             [&] { this->net_->quiesce(this->kTarget); });
  EXPECT_EQ(quiesced.wait_for(std::chrono::milliseconds(30)),
            std::future_status::timeout);
  this->target_.hold(false);
  ASSERT_EQ(quiesced.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_FALSE(this->target_.inside_handler());

  // Neither deliveries, nor tasks, nor timers reach it now; its own sends
  // are dropped too.
  std::atomic<bool> late_task{false};
  this->send_to_target(20);
  this->net_->post(this->kTarget, [&] { late_task.store(true); });
  this->net_->post_after(this->kTarget, 1'000'000, [&] { late_task.store(true); });
  this->net_->send(this->kTarget, this->kSender, Bytes{2});
  // Long enough for the 1 ms timer and the sends, and until well past the
  // pre-crash timer's deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::this_thread::sleep_until(armed + std::chrono::milliseconds(400));
  EXPECT_EQ(this->target_.delivered(), 1);
  EXPECT_FALSE(late_task.load());
  EXPECT_FALSE(old_timer.load());
  EXPECT_EQ(this->sender_.delivered(), 0);
}

TYPED_TEST(TransportContractTest, ReplacedProcessReceivesAfterRevive) {
  Probe fresh;
  this->net_->mark_crashed(this->kTarget);
  this->net_->quiesce(this->kTarget);
  this->net_->replace_process(this->kTarget, &fresh);
  this->net_->revive(this->kTarget);
  this->send_to_target(5);
  ASSERT_TRUE(wait_for([&] { return fresh.delivered() == 5; }));
  // The revived process sends again.
  this->net_->send(this->kTarget, this->kSender, Bytes{3});
  ASSERT_TRUE(wait_for([&] { return this->sender_.delivered() == 1; }));
  EXPECT_EQ(this->target_.delivered(), 0);
}

TYPED_TEST(TransportContractTest, RestartRetiresTimersArmedBeforeIt) {
  // A 50 ms timer armed before a sub-millisecond restart belongs to the old
  // object: it must not run in the new one. A timer armed after the
  // restart, due later than the old one, runs.
  std::atomic<bool> old_timer{false};
  std::atomic<bool> new_timer{false};
  this->net_->post_after(this->kTarget, 50'000'000, [&] { old_timer.store(true); });
  Probe fresh;
  this->net_->mark_crashed(this->kTarget);
  this->net_->quiesce(this->kTarget);
  this->net_->replace_process(this->kTarget, &fresh);
  this->net_->revive(this->kTarget);
  this->net_->post_after(this->kTarget, 80'000'000, [&] { new_timer.store(true); });
  ASSERT_TRUE(wait_for([&] { return new_timer.load(); }));
  EXPECT_FALSE(old_timer.load());
}

/// Stamps the arrival time of every delivery.
class Arrivals final : public net::IProcess {
 public:
  void on_message(const net::Envelope&) override {
    last_.store(Clock::now().time_since_epoch().count());
    count_.fetch_add(1);
  }
  int count() const { return count_.load(); }
  Clock::time_point last() const {
    return Clock::time_point(Clock::duration(last_.load()));
  }

 private:
  std::atomic<Clock::rep> last_{0};
  std::atomic<int> count_{0};
};

TEST(ThreadNetworkTest, FixedDelaySendsKeepSubMillisecondPrecision) {
  // 50 sequential sends under FixedDelay(100 us): each is sent once the
  // previous one arrived, so the lateness is the delayed hop's precision.
  constexpr int kSends = 50;
  constexpr TimeNs kDelay = 100'000;
  runtime::RuntimeConfig cfg;
  cfg.delay = std::make_unique<net::FixedDelay>(kDelay);
  runtime::ThreadNetwork net(std::move(cfg));
  Arrivals dst;
  net.add_process(ProcessId::server(0), &dst);
  net.start();
  std::vector<double> lateness_us;
  for (int i = 0; i < kSends; ++i) {
    const auto t0 = Clock::now();
    net.send(ProcessId::writer(0), ProcessId::server(0), Bytes{1});
    ASSERT_TRUE(wait_for([&] { return dst.count() == i + 1; }));
    lateness_us.push_back(
        std::chrono::duration<double, std::micro>(dst.last() - t0).count() -
        kDelay / 1000.0);
  }
  net.stop();
  EXPECT_GE(*std::min_element(lateness_us.begin(), lateness_us.end()), 0.0);
  EXPECT_LT(median(lateness_us), 800.0);
}

}  // namespace
}  // namespace bftreg
