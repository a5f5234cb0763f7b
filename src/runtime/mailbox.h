// Lock-free delivery shard for the executor's mailbox consumers
// (runtime/executor.h).
//
// A `MailboxShard` replaces the mutex+deque mailbox: producers (sender,
// loop-shard and socket-reader threads) publish `MailItem`s into a bounded
// MPSC ring (common/mpsc_ring.h) and the one consumer thread that owns the
// shard drains them in batches. The mutex+CondVar pair survives only on
// the cold paths: parking an idle consumer, and spilling items when the
// ring is full (reliable channels must not drop, so overflow diverts to a
// guarded deque instead of failing the send).
//
// Idle/wake handshake (the only seq_cst in the mailbox): a sleeping
// consumer must not miss a push, and a producer must not futex-wake a
// consumer that is busy draining. Classic store/load (Dekker) pattern:
//
//   consumer                          producer
//   idle_ = true          (relaxed)   ring push / overflow push
//   fence(seq_cst)                    fence(seq_cst)
//   ring empty? overflow empty?       idle_ ?
//   yes -> cv wait                    true -> lock mu_, notify
//
// The two seq_cst fences totally order each side's store before its load:
// either the producer's push is visible to the consumer's emptiness check
// (consumer does not sleep), or the consumer's idle_ store is visible to
// the producer's load (producer notifies). The notify itself is taken
// under mu_, which the consumer holds from before setting idle_ until
// cv_.wait() releases it -- so a notify can never fall between the
// consumer's last check and its wait. Steady-state traffic touches neither
// mu_ nor the futex.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/mpsc_ring.h"
#include "common/sync.h"
#include "net/envelope.h"

namespace bftreg::runtime {

struct Context;  // runtime/executor.h

/// One unit of mailbox work, dispatched in `ctx`. Deliveries carry the
/// envelope inline, so a message costs no closure allocation; tasks
/// (on_start, post, timer fire) carry a closure.
struct MailItem {
  Context* ctx{nullptr};
  net::Envelope env;
  /// Non-null: run this task. Null: deliver `env`.
  std::function<void()> fn;
  /// Tasks only: the context's incarnation when posted or armed (Context).
  uint64_t incarnation{0};
};

class MailboxShard {
 public:
  static constexpr size_t kDefaultRingCapacity = 1024;

  explicit MailboxShard(size_t ring_capacity = kDefaultRingCapacity)
      : ring_(ring_capacity) {}

  MailboxShard(const MailboxShard&) = delete;
  MailboxShard& operator=(const MailboxShard&) = delete;

  /// Producer side; any thread. Never drops. Returns true when the ring
  /// was full and the item spilled to the overflow deque (callers count it
  /// in their transport metrics).
  bool push_item(MailItem&& item) {
    bool spilled = false;
    if (!ring_.try_push(item)) {
      MutexLock lock(mu_);
      overflow_.push_back(std::move(item));
      spilled_.store(true, std::memory_order_release);
      spilled = true;
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (idle_.load(std::memory_order_relaxed)) {
      // Transition wake: idle_ is only set by a consumer that found both
      // queues empty, so this fires once per sleep, not once per message.
      MutexLock lock(mu_);
      cv_.notify_one();
    }
    return spilled;
  }

  /// Consumer side; single thread only. Invokes `fn(item)` on the next
  /// batch of items, blocking while the shard is empty. Returns false only
  /// when stop() was called and everything already pushed has been
  /// drained; callers loop `while (pop_wait_consume(fn)) {}`.
  template <typename Fn>
  bool pop_wait_consume(Fn&& fn) {
    bool yielded = false;
    for (;;) {
      size_t handled = ring_.consume_batch(fn, ring_.capacity());
      if (spilled_.load(std::memory_order_acquire)) {
        // Move spilled items out before invoking handlers: fn may send,
        // and sending can take another shard's mu_ -- never nest that
        // under ours.
        std::vector<MailItem> spill;
        {
          MutexLock lock(mu_);
          while (!overflow_.empty()) {
            spill.push_back(std::move(overflow_.front()));
            overflow_.pop_front();
          }
          spilled_.store(false, std::memory_order_relaxed);
        }
        for (MailItem& item : spill) fn(item);
        handled += spill.size();
      }
      if (handled > 0) return true;

      // One yield before parking: on a loaded box the producer that is
      // about to feed us is often runnable on this core right now, and
      // letting it run skips a futex wait/wake round trip. Bounded to a
      // single attempt so a truly idle shard still parks promptly.
      if (!yielded) {
        yielded = true;
        std::this_thread::yield();
        continue;
      }

      MutexLock lock(mu_);
      idle_.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!ring_.empty() || !overflow_.empty()) {
        idle_.store(false, std::memory_order_relaxed);
        continue;
      }
      if (stopped_.load(std::memory_order_acquire)) {
        idle_.store(false, std::memory_order_relaxed);
        return false;
      }
      cv_.wait(lock);
      idle_.store(false, std::memory_order_relaxed);
    }
  }

  /// Unblocks the consumer; pop_wait keeps returning batches until the
  /// shard is fully drained, then returns false. Idempotent; any thread.
  void stop() {
    stopped_.store(true, std::memory_order_release);
    MutexLock lock(mu_);
    cv_.notify_all();
  }

 private:
  common::MpscRing<MailItem> ring_;
  Mutex mu_;
  CondVar cv_;
  std::deque<MailItem> overflow_ GUARDED_BY(mu_);
  /// Set under mu_ by a spilling producer, cleared under mu_ by the
  /// consumer; the lock-free acquire load in pop_wait only decides whether
  /// to bother taking the lock.
  std::atomic<bool> spilled_{false};
  std::atomic<bool> idle_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace bftreg::runtime
