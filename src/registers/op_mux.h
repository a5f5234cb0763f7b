// Operation multiplexer: many concurrent operations per client.
//
// The paper's model (Section II-A) is well-formed clients -- one operation
// at a time -- and the protocol clients were historically written that way:
// one QuorumTracker, one response map, one callback per client object.
// Nothing in the correctness argument actually needs that restriction on a
// *process*: the witness rule (Lemma 1/Lemma 5) and the quorum bound
// (Lemma 6) are counted per operation, so a client that keeps per-operation
// state can run dozens-to-hundreds of logically independent operations
// (across many shared variables) concurrently, exactly like issuing them
// from that many well-formed virtual clients.
//
// OpMux is that per-operation bookkeeping, factored out once:
//
//   * a table of in-flight PendingOps keyed by wire op id; responses are
//     routed to their operation by id, so a straggler from a completed or
//     retransmitted operation can never pollute a newer one;
//   * wire op ids namespaced per (client, object, protocol):
//     id = (ns_hash32 << 32) | seq32. Two concurrent reads of different
//     objects -- or a BSR read and a history read of the same object --
//     can never collide, and ids never repeat across operations;
//   * deadline-based timeouts with capped retransmission: an operation that
//     misses its deadline is re-issued under the SAME op id (so straggler
//     replies to the first attempt still count toward the quorum) with
//     multiplicative backoff, until the retry budget is exhausted and the
//     operation completes with its protocol's fallback state, flagged
//     timed_out. The live deadlines sit in one ordered table, and the mux
//     keeps at most one transport timer posted, for the earliest of them:
//     an operation that completes in time costs no timer at all.
//
// Protocol logic (what to send, how to count witnesses, when the operation
// is done) stays in PendingOp subclasses (protocol_ops.h); OpMux owns only
// the bookkeeping that used to be copy-pasted per client.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "net/transport.h"
#include "registers/config.h"
#include "registers/messages.h"
#include "registers/results.h"

namespace bftreg::registers {

class OpMux;

/// Deadline/retry policy for one operation. The default (timeout 0) never
/// arms a timer: the operation waits for its quorum forever, which is the
/// paper's asynchronous model and the mode the deterministic protocol tests
/// run in.
struct RetryPolicy {
  /// Per-attempt deadline in transport ns; 0 disables timeouts entirely.
  TimeNs timeout{0};
  /// Retransmissions after the first attempt before giving up.
  uint32_t max_retries{0};
  /// Deadline multiplier per retransmission (values < 1 are treated as 1).
  double backoff{2.0};
};

/// One in-flight operation. Subclasses implement the protocol: what the
/// request looks like, how responses are tallied, and what the fallback
/// result is on timeout.
///
/// Lifecycle: OpMux::start() installs the op in the table and calls
/// send_request(); responses arrive via on_response(); the op ends by
/// calling detach_self() -- which removes it from the table so no further
/// response or timer can reach it -- and then invoking its user callback.
/// `this` is destroyed when the detached holder goes out of scope, so the
/// completion path must be the last thing a handler does.
class PendingOp {
 public:
  virtual ~PendingOp() = default;

  PendingOp(const PendingOp&) = delete;
  PendingOp& operator=(const PendingOp&) = delete;

  uint64_t op_id() const { return op_id_; }
  uint32_t object() const { return object_; }

 protected:
  PendingOp() = default;

  friend class OpMux;

  /// Sends the first attempt. Runs after the op is installed in the table.
  virtual void send_request() = 0;

  /// Re-issues the request after a missed deadline, under the same op id.
  /// Multi-phase ops should resend only the current phase's request.
  virtual void retransmit() { send_request(); }

  /// A server response carrying this op's id. `from` is deduplicated by
  /// nothing here -- protocols keep their own QuorumTracker per phase.
  virtual void on_response(const ProcessId& from, RegisterMessage msg) = 0;

  /// Retry budget exhausted. Implementations must complete the operation
  /// (detach_self + callback) with their fallback state; timed_out() is
  /// already true when this runs.
  virtual void on_timeout() = 0;

  // --- services provided by the mux --------------------------------------
  OpMux& mux() const { return *mux_; }
  const SystemConfig& config() const;
  net::Transport* transport() const;
  const ProcessId& self() const;
  TimeNs invoked_at() const { return invoked_at_; }
  uint32_t retries() const { return retries_; }
  bool timed_out() const { return timed_out_; }

  /// Sends to every server, 0..n-1: the fixed server set of the paper's
  /// model, which every operation addresses in full (Figs. 1-6).
  void send_to_all_servers(const RegisterMessage& msg);
  void send_to_server(uint32_t index, const RegisterMessage& msg);

  /// Stamps the bookkeeping fields every result shares (timestamps, round
  /// count, retry/timeout outcome).
  void fill_result(OpResult& out, int rounds) const;

  /// Removes this op from the mux table and returns ownership. Call first
  /// on every completion path; the user callback may start new operations
  /// on the same mux without observing this one as in-flight.
  std::unique_ptr<PendingOp> detach_self();

 private:
  OpMux* mux_{nullptr};
  uint64_t op_id_{0};
  uint32_t object_{0};
  TimeNs invoked_at_{0};
  uint32_t retries_{0};
  /// This op's entry in OpMux::deadlines_; deadline_seq_ 0 = none.
  TimeNs deadline_{0};
  uint64_t deadline_seq_{0};
  bool timed_out_{false};
  RetryPolicy policy_{};
  TimeNs cur_timeout_{0};
};

/// Protocol discriminator for op-id namespacing. Distinct kinds make the
/// (client, object, protocol) namespaces disjoint even when two protocol
/// flavors run over the same object concurrently.
enum class OpKind : uint8_t {
  kBsrRead = 1,
  kBcsrRead = 2,
  kHistoryRead = 3,
  kTwoRoundRead = 4,
  kWriteBackRead = 5,
  kWrite = 6,
  kBatchRead = 7,
  kRbRead = 8,
};

/// Per-client table of in-flight operations. Not itself registered with the
/// transport: the owning RegisterClient forwards its envelopes to
/// on_message(). All methods must run in the owning process's execution
/// context (simulator event / executor delivery context); like every protocol object
/// in this repo, OpMux is single-threaded by construction.
class OpMux final {
 public:
  OpMux(ProcessId self, SystemConfig config, net::Transport* transport);
  ~OpMux();

  OpMux(const OpMux&) = delete;
  OpMux& operator=(const OpMux&) = delete;

  /// Installs `op` under a fresh namespaced wire id and launches it.
  /// Returns the wire id (useful for tests; protocol code never needs it).
  uint64_t start(std::unique_ptr<PendingOp> op, OpKind kind, uint32_t object,
                 const RetryPolicy& policy = {});

  /// Routes a server response to its operation by op id. Envelopes that
  /// parse but match no in-flight op (stragglers of completed operations,
  /// Byzantine fabrications) are dropped here, in one place.
  void on_message(const net::Envelope& env);

  size_t in_flight() const { return ops_.size(); }
  bool idle() const { return ops_.empty(); }

  const ProcessId& id() const { return self_; }
  const SystemConfig& config() const { return config_; }
  net::Transport* transport() const { return transport_; }

  /// Operations that exhausted their retry budget.
  uint64_t timeouts() const { return timeouts_; }
  /// Deadline-triggered retransmissions across all operations.
  uint64_t retransmits() const { return retransmits_; }

 private:
  friend class PendingOp;

  /// A live deadline: (when, arm order).
  using DeadlineKey = std::pair<TimeNs, uint64_t>;

  std::unique_ptr<PendingOp> detach(uint64_t op_id);
  /// Enters `op`'s deadline, now + its current timeout.
  void arm_timer(PendingOp* op);
  void disarm(PendingOp* op);
  /// Posts the timer for the earliest live deadline, unless one is already
  /// posted that fires no later.
  void schedule_timer();
  /// The posted timer fired: expires every due op, earliest deadline
  /// first (ties in arm order), then posts for the next live deadline.
  void on_timer(uint64_t gen);
  /// `op` missed its deadline: retransmit with backoff, or time out.
  void expire(PendingOp* op);
  uint64_t allocate_op_id(OpKind kind, uint32_t object);

  const ProcessId self_;
  const SystemConfig config_;
  net::Transport* const transport_;

  std::unordered_map<uint64_t, std::unique_ptr<PendingOp>> ops_;
  /// Namespace hash -> next sequence number (starts at 1; 0 is never used,
  /// so a wire id of 0 is never valid).
  std::unordered_map<uint32_t, uint32_t> next_seq_;

  /// Live deadlines -> op id. An op's entry leaves when it completes.
  std::map<DeadlineKey, uint64_t> deadlines_;
  uint64_t arms_{0};
  /// The deadline the posted timer fires at, if one is posted. Transport
  /// timers cannot be withdrawn, so a timer superseded by an earlier
  /// deadline stays queued; timer_gen_ makes its fire a no-op.
  std::optional<TimeNs> timer_at_;
  uint64_t timer_gen_{0};
  /// on_timer is expiring ops: arms wait for its one schedule_timer().
  bool expiring_{false};

  /// Timer closures handed to Transport::post_after may outlive this mux
  /// (the transport drains queues on its own schedule); they hold this flag
  /// and become no-ops once the mux is gone.
  std::shared_ptr<std::atomic<bool>> alive_;

  uint64_t timeouts_{0};
  uint64_t retransmits_{0};
};

}  // namespace bftreg::registers
