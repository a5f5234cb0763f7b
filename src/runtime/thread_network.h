// Real-time, in-memory transport.
//
// The same protocol state machines that run under the deterministic
// simulator run here on OS threads with wall-clock delays. ThreadNetwork
// is a router over runtime::Executor (runtime/executor.h), the executor
// the TCP transport runs on too: a send is sealed, counted, delayed by the
// configured model (a timer on a loop shard) and queued into the
// destination's delivery context on a pooled mailbox consumer. The thread
// count is the executor's (net::TransportOptions{}.resolved(): loop shards
// + mailbox consumers), whatever the process count. Used by the wall-clock
// benches (E3), ThreadCluster and the examples.
//
// Delivery is lock-free in the steady state: the destination context's
// consumer drains a bounded MPSC ring (runtime/mailbox.h) in batches;
// mutexes appear only when a consumer parks idle, a full ring spills to
// its overflow deque, or a delayed send queues its timer.
//
// Locking map (statically checked under clang -Wthread-safety):
//   * rng_mu_ guards the delay-model RNG (senders draw delays concurrently).
// The executor's registry is written only before start() and is read-only
// afterwards, so lookups need no lock.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "common/types.h"
#include "crypto/auth.h"
#include "net/delay.h"
#include "net/transport.h"
#include "runtime/executor.h"

namespace bftreg::runtime {

struct RuntimeConfig {
  uint64_t seed{1};
  uint64_t master_secret{0x5eC4e7B17e5eCBA5ULL};
  /// Artificial per-message delay; null means deliver immediately
  /// (still asynchronously, through the destination mailbox).
  std::unique_ptr<net::DelayModel> delay;
};

class ThreadNetwork final : public net::Transport {
 public:
  explicit ThreadNetwork(RuntimeConfig config);
  ~ThreadNetwork() override;

  ThreadNetwork(const ThreadNetwork&) = delete;
  ThreadNetwork& operator=(const ThreadNetwork&) = delete;

  /// Registers a process before start(); caller retains ownership.
  void add_process(const ProcessId& pid, net::IProcess* process);

  /// Starts the executor and invokes on_start() of every process in its
  /// context.
  void start();

  /// Drains mailboxes and joins all threads; pending delays and timers are
  /// dropped.
  ///
  /// Contract: idempotent -- only the first call (the winner of the
  /// `running_` exchange) performs the shutdown; later or concurrent calls
  /// return immediately without waiting for it to finish. Must be called
  /// from an *external* thread (the owner or any client thread), never from
  /// an executor thread: stop() joins those threads and would
  /// self-deadlock. Asserted in debug builds.
  void stop();

  // --- live restart (Executor's surface; see runtime/executor.h) ----------
  //
  // Crash/rejoin of a single process while the network keeps running:
  // mark_crashed, then quiesce (no handler of it is running), then
  // replace_process (same shard count), then revive. A crashed process
  // neither sends nor receives, and its timers do not fire.

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

 private:
  void route(Executor::Slot* dst, net::Envelope env);

  crypto::Authenticator auth_;
  std::unique_ptr<net::DelayModel> delay_;
  net::NetworkMetrics metrics_;
  Executor exec_;
  std::vector<ProcessId> pids_;

  Mutex rng_mu_;
  Rng rng_ GUARDED_BY(rng_mu_);

  std::atomic<uint64_t> next_seq_{0};
  std::atomic<bool> running_{false};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace bftreg::runtime
