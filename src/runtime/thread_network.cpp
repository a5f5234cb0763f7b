#include "runtime/thread_network.h"

#include <cassert>

namespace bftreg::runtime {

ThreadNetwork::ThreadNetwork(RuntimeConfig config)
    : auth_(crypto::KeyRegistry(config.master_secret)),
      delay_(std::move(config.delay)),
      exec_(net::TransportOptions{}.resolved(), &metrics_),
      rng_(config.seed),
      epoch_(std::chrono::steady_clock::now()) {}

ThreadNetwork::~ThreadNetwork() { stop(); }

void ThreadNetwork::add_process(const ProcessId& pid, net::IProcess* process) {
  assert(!running_.load(std::memory_order_acquire));
  exec_.add_process(pid, process);
  pids_.push_back(pid);
}

void ThreadNetwork::start() {
  assert(!running_.load(std::memory_order_acquire));
  running_.store(true, std::memory_order_release);
  auth_.precompute(pids_);
  exec_.start();
}

void ThreadNetwork::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  exec_.stop();
}

TimeNs ThreadNetwork::now() const {
  return static_cast<TimeNs>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - epoch_)
                                 .count());
}

void ThreadNetwork::send_payload(const ProcessId& from, const ProcessId& to,
                                 Payload payload) {
  if (const Executor::Slot* src = exec_.find(from);
      src != nullptr && exec_.crashed(src)) {
    return;
  }
  net::Envelope env;
  env.from = from;
  env.to = to;
  env.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  env.sent_at = now();
  env.mac = auth_.seal(from, to, payload);
  env.payload = std::move(payload);
  metrics_.on_send(env.payload.size());

  TimeNs d = 0;
  if (delay_) {
    MutexLock lock(rng_mu_);
    d = delay_->delay(env, rng_);
  }
  Executor::Slot* dst = exec_.find(to);
  if (dst == nullptr) return;  // unknown destination: nothing to deliver to
  if (d == 0) {
    route(dst, std::move(env));
    return;
  }
  exec_.run_after(dst, d, [this, dst, env = std::move(env)]() mutable {
    route(dst, std::move(env));
  });
}

void ThreadNetwork::route(Executor::Slot* dst, net::Envelope env) {
  if (exec_.crashed(dst)) return;
  // Unlike the socket transport, no byte ever left this address space:
  // every envelope was sealed by send_payload above over an immutable
  // refcounted payload, so re-verifying here is the identity check by
  // construction. Model the receiver-side verification as a debug
  // assertion instead of burning a SipHash pass per delivery.
  assert(auth_.verify(env.from, env.to, env.payload, env.mac));
  metrics_.on_deliver();
  exec_.deliver(dst, std::move(env));
}

}  // namespace bftreg::runtime
