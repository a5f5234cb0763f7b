// Deterministic discrete-event network simulator.
//
// Implements `net::Transport` over a virtual clock. Every run is a pure
// function of (seed, registered processes, scripted delays): events are
// ordered by (delivery time, send sequence), so ties break deterministically
// and any execution -- including one exhibiting a safety violation -- can be
// replayed from its seed. Message authentication is enforced on delivery;
// envelopes with bad MACs are dropped and counted, mirroring how the paper's
// signature assumption neutralizes sender spoofing (Section II-A).
#pragma once

#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "crypto/auth.h"
#include "net/delay.h"
#include "net/transport.h"

namespace bftreg::sim {

struct SimConfig {
  uint64_t seed{1};
  /// Master secret for the pairwise-key registry (unknown to the adversary).
  uint64_t master_secret{0x5eC4e7B17e5eCBA5ULL};
  /// Base delay model; wrapped in a ScriptedDelay so tests/benches can
  /// override links or install payload hooks at any time.
  std::unique_ptr<net::DelayModel> delay;

  static SimConfig with_uniform_delay(uint64_t seed, TimeNs lo, TimeNs hi) {
    SimConfig c;
    c.seed = seed;
    c.delay = std::make_unique<net::UniformDelay>(lo, hi);
    return c;
  }
  static SimConfig with_fixed_delay(uint64_t seed, TimeNs d) {
    SimConfig c;
    c.seed = seed;
    c.delay = std::make_unique<net::FixedDelay>(d);
    return c;
  }
};

class Simulator final : public net::Transport {
 public:
  explicit Simulator(SimConfig config);

  // --- topology -----------------------------------------------------------

  /// Registers a process; the caller retains ownership and must keep the
  /// object alive for the simulator's lifetime. Registering over an
  /// existing pid replaces the object and starts a new incarnation: tasks
  /// posted and timers armed for the old object are dropped.
  void add_process(const ProcessId& pid, net::IProcess* process);

  /// Marks a process as crashed: no further sends from it are placed and no
  /// deliveries to it occur (the model's "delivery depends only on the
  /// destination being non-faulty").
  void mark_crashed(const ProcessId& pid);
  bool is_crashed(const ProcessId& pid) const;

  /// Clears the crashed mark: sends and deliveries resume. Pair with a
  /// fresh add_process(pid, ...) to model crash/rejoin -- add_process
  /// overwrites, and deliveries resolve the process pointer at delivery
  /// time, so messages queued across the restart reach the NEW object (to
  /// the protocol that is just a slow network), while the old object's
  /// tasks and timers do not.
  void revive(const ProcessId& pid) { crashed_.erase(pid); }

  /// Calls on_start() for every registered process (as time-0 events).
  void start_all();

  // --- net::Transport -----------------------------------------------------

  void send_payload(const ProcessId& from, const ProcessId& to,
                    Payload payload) override;
  TimeNs now() const override { return now_; }
  void post(const ProcessId& pid, std::function<void()> fn) override;
  void post_after(const ProcessId& pid, TimeNs delta,
                  std::function<void()> fn) override;
  net::NetworkMetrics& metrics() override { return metrics_; }

  // --- scheduling / execution --------------------------------------------

  void schedule_at(TimeNs at, std::function<void()> fn);
  void schedule_after(TimeNs delta, std::function<void()> fn);

  /// Executes the next event; false if the queue is empty.
  bool step();

  /// Runs until no events remain.
  void run_until_idle();

  /// Runs until `pred()` is true or the queue drains; returns pred().
  bool run_until(const std::function<bool()>& pred);

  /// Runs events with time <= deadline (later events stay queued).
  void run_until_time(TimeNs deadline);

  size_t pending_events() const { return queue_.size(); }
  uint64_t events_executed() const { return events_executed_; }

  // --- knobs --------------------------------------------------------------

  Rng& rng() { return rng_; }
  net::ScriptedDelay& delay_model() { return *scripted_; }
  const crypto::Authenticator& authenticator() const { return auth_; }

  /// Injects a pre-built envelope without sealing it (testing hook for
  /// spoofing attempts; delivery will MAC-check and drop forgeries).
  void inject_raw(net::Envelope env);

 private:
  struct Event {
    TimeNs at;
    uint64_t seq;
    std::function<void()> fn;
  };
  struct EventCompare {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// A registered process and how many times its pid was re-registered.
  struct Registration {
    net::IProcess* process{nullptr};
    uint64_t incarnation{0};
  };

  void deliver(net::Envelope env);
  uint64_t incarnation_of(const ProcessId& pid) const;

  TimeNs now_{0};
  uint64_t next_seq_{0};
  uint64_t events_executed_{0};
  Rng rng_;
  crypto::Authenticator auth_;
  std::unique_ptr<net::ScriptedDelay> scripted_;
  net::NetworkMetrics metrics_;
  std::unordered_map<ProcessId, Registration> processes_;
  std::unordered_set<ProcessId> crashed_;
  std::priority_queue<Event, std::vector<Event>, EventCompare> queue_;
};

}  // namespace bftreg::sim
