// The executor under both real-time transports.
//
// runtime::ThreadNetwork (an in-memory router) and socknet::TcpNetwork
// (kernel sockets) run every handler, task and timer on one fixed thread
// budget, owned here and nowhere else (the `socknet-thread` lint rule):
//
//   * loop shards (`LoopShard`, pooled by `EventLoop`): one epoll set per
//     thread. The TCP transport registers its sockets on them; both
//     transports run tasks and timers on them. Each shard arms a timerfd
//     at its earliest deadline, so a 100 us timer fires about 100 us
//     later instead of at epoll_wait's next whole millisecond -- the
//     in-memory transport's sub-millisecond delay models depend on it.
//   * mailbox consumers: a fixed set of MPSC-ring consumers
//     (runtime/mailbox.h). Every registered process gets one `Context` per
//     delivery shard (IProcess::delivery_shards), pinned to one consumer
//     by assign_context(), so the handlers of one context never run
//     concurrently -- the IProcess serialization guarantee -- while the
//     thread count stays loop_shards + mailbox_shards whatever the process
//     count.
//
// A context owns its process pointer (atomic, so replace_process can swap
// it), a crashed flag, an incarnation number and a handler-entry token.
// mark_crashed / quiesce / replace_process / revive are the live-restart
// surface both transports forward (see quiesce() for the handshake).
//
// Because one consumer serves several processes, a handler must never
// block waiting on another context: that context may be queued behind it
// on the same thread.
//
// Threading contract:
//   * add_process() only before start(); the registry is read-only after.
//   * post()/post_after()/run_after()/deliver() and the restart calls are
//     thread-safe.
//   * stop() is idempotent and only legal from outside the executor's
//     threads (it joins them); asserted in debug builds.
//   * LoopShard::add_fd/mod_fd/del_fd must run on the shard's own thread
//     (post() a task to get there); fd handlers run there one at a time and
//     may add/del fds of their own shard, including the one they fired for.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "common/types.h"
#include "net/metrics.h"
#include "net/transport.h"
#include "runtime/mailbox.h"

namespace bftreg::runtime {

class LoopShard {
 public:
  /// Callback for fd readiness; receives the ready epoll event mask
  /// (EPOLLIN / EPOLLOUT / EPOLLERR / EPOLLHUP bits).
  using FdHandler = std::function<void(uint32_t events)>;

  LoopShard();
  ~LoopShard();

  LoopShard(const LoopShard&) = delete;
  LoopShard& operator=(const LoopShard&) = delete;

  void start();
  /// Runs every already-posted task, drops pending timers (the transport
  /// contract: timers pending at shutdown are dropped), and joins the
  /// thread. Registered fds are NOT closed -- their owner reclaims them
  /// after the join, when nothing can race the close.
  void stop();

  bool on_loop_thread() const;

  /// Enqueues `fn` to run on the loop thread. Thread-safe; never blocks.
  void post(std::function<void()> fn);

  /// Runs `fn` on the loop thread no earlier than `delta_ns` from now.
  /// Thread-safe. Pending timers are dropped at stop().
  void run_after(TimeNs delta_ns, std::function<void()> fn);

  // --- fd registration (loop thread only) ---------------------------------

  void add_fd(int fd, uint32_t events, FdHandler handler);
  void mod_fd(int fd, uint32_t events);
  /// Unregisters the handler. Does not close the fd. Safe to call from the
  /// fd's own handler; a deleted fd's queued events in the current batch
  /// are skipped.
  void del_fd(int fd);
  bool has_fd(int fd) const;

 private:
  struct Timer {
    TimeNs due;
    uint64_t seq;
    std::function<void()> fn;
  };

  void loop();
  /// Runs every queued task; returns true when at least one ran (progress
  /// signal for the park heuristic in loop()).
  bool drain_tasks();
  /// Kicks the loop out of epoll_wait. Coalesced: between two drains only
  /// the first caller pays the eventfd write syscall; later callers see
  /// wake_pending_ already set and return immediately.
  void wake();
  /// Merges newly posted timers, fires the due ones, and arms the timerfd
  /// at the next deadline.
  void run_timers();
  static TimeNs mono_now();

  int epoll_fd_{-1};
  int wake_fd_{-1};
  /// CLOCK_MONOTONIC timerfd in the epoll set, armed (absolute) at the
  /// heap's earliest deadline; `armed_due_` is that deadline, 0 when the
  /// timer is not armed. Re-arming costs a syscall only when the earliest
  /// deadline changes.
  int timer_fd_{-1};
  TimeNs armed_due_{0};
  std::thread thread_;
  std::atomic<bool> running_{false};
  /// True while a wake has been issued that the loop has not yet consumed
  /// (cleared at the top of drain_tasks, before the task swap, so a post
  /// landing after the clear either joins the in-progress swap or issues a
  /// fresh -- at worst spurious -- wake; a wake is never lost).
  std::atomic<bool> wake_pending_{false};
  /// True only while the loop is parked (or about to park) in epoll_wait.
  /// wake() skips the eventfd syscall entirely when this is false: the
  /// loop is busy and rechecks the queues under mu_ before it next parks
  /// (sleep/wake handshake, same shape as runtime/mailbox.h).
  std::atomic<bool> polling_{false};

  Mutex mu_;
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  std::vector<Timer> new_timers_ GUARDED_BY(mu_);

  // Loop-thread private.
  std::map<int, std::shared_ptr<FdHandler>> handlers_;
  std::vector<Timer> heap_;  // min-heap on (due, seq)
  uint64_t timer_seq_{0};
};

/// Fixed pool of LoopShards plus the hashing that assigns work to them.
/// The shard count is fixed at construction (TransportOptions::loop_shards)
/// and independent of how many endpoints or connections exist.
class EventLoop {
 public:
  explicit EventLoop(size_t shards);

  void start();
  void stop();

  size_t size() const { return shards_.size(); }
  LoopShard& shard(size_t idx) { return *shards_[idx]; }

  /// Stable home shard for an endpoint: hash(pid) % size(). Its timers, and
  /// on the TCP transport its listener and dialed connections, live here.
  size_t shard_of(const ProcessId& pid) const;

  /// Spreads accepted connections across shards (round-robin), so inbound
  /// load of one hot endpoint is not pinned to its home shard.
  size_t next_conn_shard();

  bool on_loop_thread() const;

 private:
  std::vector<std::unique_ptr<LoopShard>> shards_;
  std::atomic<uint64_t> conn_rr_{0};
};

/// One (process, delivery shard) execution context.
struct Context {
  /// Loaded per item (acquire), so an item queued before replace_process
  /// runs in the NEW process -- indistinguishable from network delay.
  /// This line is read-mostly: producers read it on every send.
  alignas(64) std::atomic<net::IProcess*> process{nullptr};
  std::atomic<bool> crashed{false};
  /// Advanced by replace_process; dispatch drops tasks and timers posted or
  /// armed under an earlier one. Envelopes reach whichever object is current.
  std::atomic<uint64_t> incarnation{0};
  /// The delivery shard index passed to on_batch_begin/on_batch_end.
  uint32_t shard{0};
  /// The consumer ring this context is pinned to.
  MailboxShard* box{nullptr};
  /// Handler-entry token: the consumer holds it around every item it
  /// dispatches to this context (see Executor::quiesce). Its own cache
  /// line, so the consumer's two writes per item do not bounce the line
  /// above out of producers' caches.
  alignas(64) std::atomic<int> active{0};
};

class Executor {
 public:
  /// A registered process: one context per delivery shard, and the loop
  /// shard its timers run on (EventLoop::shard_of). Immutable after
  /// add_process.
  struct Slot {
    std::vector<std::unique_ptr<Context>> contexts;
    size_t home{0};
  };

  /// `options` must be resolved (TransportOptions::resolved); `metrics`
  /// counts mailbox overflows and must outlive the executor.
  Executor(const net::TransportOptions& options, net::NetworkMetrics* metrics);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Registers a process before start(); the caller retains ownership.
  Slot* add_process(const ProcessId& pid, net::IProcess* process);
  /// The registered process `pid`, or nullptr. Two array loads.
  Slot* find(const ProcessId& pid) const;

  /// Starts the consumers and loop shards and runs on_start() of every
  /// process in its context 0.
  void start();
  /// Stops the loop shards (already-posted loop tasks run, timers are
  /// dropped), then lets the consumers drain what is queued and joins them.
  /// Idempotent; never from an executor thread.
  void stop();
  bool on_executor_thread() const;

  /// Queues `env` for `slot`'s process, in the context its shard_of picks.
  void deliver(Slot* slot, net::Envelope env);
  /// Runs `fn` in `pid`'s context 0 (tasks keep the single-context
  /// guarantee clients rely on). Unknown pids are ignored.
  void post(const ProcessId& pid, std::function<void()> fn);
  /// post() no earlier than `delta` ns from now, through a timer on the
  /// process's home loop shard.
  void post_after(const ProcessId& pid, TimeNs delta, std::function<void()> fn);
  /// Runs `fn` on `slot`'s home loop shard (not in its context) no earlier
  /// than `delta` ns from now.
  void run_after(const Slot* slot, TimeNs delta, std::function<void()> fn);

  // --- live restart ---------------------------------------------------------
  //
  //   mark_crashed(pid)    -- stop dispatching: items are dropped at
  //                           dispatch, so a crash takes effect mid-batch,
  //                           and no task or timer runs while crashed;
  //   quiesce(pid)         -- wait until no consumer is inside one of its
  //                           handlers (safe point for WAL replay);
  //   replace_process(pid) -- swap in the recovered object (same shard
  //                           count) and advance the incarnation: queued
  //                           envelopes deliver to it, while tasks posted
  //                           and timers armed before the swap never run;
  //   revive(pid)          -- resume dispatching.
  // The caller keeps the old object alive until stop().

  bool crashed(const Slot* slot) const {
    return slot->contexts[0]->crashed.load(std::memory_order_acquire);
  }
  void mark_crashed(const ProcessId& pid);
  /// Blocks until every context of `pid` has left its handler. Call after
  /// mark_crashed(pid); the crashed flag keeps new items from entering
  /// handlers, so this is a one-way barrier, not a lull.
  void quiesce(const ProcessId& pid);
  void replace_process(const ProcessId& pid, net::IProcess* process);
  void revive(const ProcessId& pid);

  EventLoop& loop() { return loop_; }

 private:
  /// The one context -> consumer assignment: round-robin at registration,
  /// so the delivery shards of one process land on distinct consumers
  /// whenever there are at least as many consumers as shards.
  MailboxShard* assign_context();
  void push(MailItem item);

  net::NetworkMetrics* const metrics_;
  EventLoop loop_;
  std::vector<std::unique_ptr<MailboxShard>> boxes_;
  std::vector<std::thread> consumers_;
  size_t next_box_{0};
  std::vector<std::unique_ptr<Slot>> slots_;  // registration order
  /// Dense per-role index over slots_ (role x index -> Slot*), immutable
  /// after start(): the per-message find() is two array loads.
  std::vector<Slot*> by_role_[3];
  std::atomic<bool> running_{false};
};

}  // namespace bftreg::runtime
