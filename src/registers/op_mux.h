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
//     timed_out.
//
// Protocol logic (what to send, how to count witnesses, when the operation
// is done) stays in PendingOp subclasses (protocol_ops.h); OpMux owns only
// the bookkeeping that used to be copy-pasted per client.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "net/transport.h"
#include "registers/config.h"
#include "registers/messages.h"
#include "registers/results.h"
#include "registers/view.h"

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

  /// Sends to every member of the current view (not blindly 0..n-1), and
  /// stamps the view epoch into `msg` (hence non-const) plus into this op,
  /// so the mux can tell which in-flight ops straddle a later view change.
  void send_to_all_servers(RegisterMessage& msg);
  void send_to_server(uint32_t index, RegisterMessage& msg);

  /// The membership epoch under which this op last sent a request.
  uint64_t view_epoch() const { return view_epoch_; }

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
  uint64_t timer_gen_{0};
  bool timed_out_{false};
  RetryPolicy policy_{};
  TimeNs cur_timeout_{0};
  /// Epoch of the view this op last sent under; stale ops are retransmitted
  /// (same id -- earlier replies still count) when the view advances.
  uint64_t view_epoch_{0};
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
/// context (simulator event / mailbox thread); like every protocol object
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

  // --- dynamic membership -------------------------------------------------

  /// Current membership view (epoch 0 / full set until a change is seen).
  const MembershipView& view() const { return view_.view(); }
  uint64_t view_epoch() const { return view_.epoch(); }
  /// Retransmissions forced by a view change (ops that straddled an epoch
  /// boundary and were re-issued -- the "abort and retry" of the tentpole;
  /// same op id, so replies already collected still count).
  uint64_t view_retries() const { return view_retries_; }

 private:
  friend class PendingOp;

  std::unique_ptr<PendingOp> detach(uint64_t op_id);
  void arm_timer(PendingOp* op);
  void on_timer(uint64_t op_id, uint64_t gen);
  uint64_t allocate_op_id(OpKind kind, uint32_t object);
  /// The view advanced: re-issue every in-flight op that last sent under an
  /// older epoch. retransmit() never completes/detaches an op, so iterating
  /// the table while calling it is safe.
  void on_view_change();

  const ProcessId self_;
  const SystemConfig config_;
  net::Transport* const transport_;
  ViewTracker view_{config_};

  std::unordered_map<uint64_t, std::unique_ptr<PendingOp>> ops_;
  /// Namespace hash -> next sequence number (starts at 1; 0 is never used,
  /// so a wire id of 0 is never valid).
  std::unordered_map<uint32_t, uint32_t> next_seq_;

  /// Timer closures handed to Transport::post_after may outlive this mux
  /// (the transport drains queues on its own schedule); they hold this flag
  /// and become no-ops once the mux is gone.
  std::shared_ptr<std::atomic<bool>> alive_;

  uint64_t timeouts_{0};
  uint64_t retransmits_{0};
  uint64_t view_retries_{0};
};

}  // namespace bftreg::registers
