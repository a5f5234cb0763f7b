#include "runtime/executor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

namespace bftreg::runtime {

namespace {

constexpr int kMaxEvents = 128;

/// Drains one mailbox consumer until its shard is stopped and empty.
///
/// Every item runs under its context's entry token, taken seq_cst BEFORE
/// the crashed check (the other half of Executor::quiesce's handshake), and
/// the process object is loaded per item. A task of an earlier incarnation
/// is dropped like a crashed context's: revive publishes the advance that
/// replace_process made before it.
///
/// Batch brackets (IProcess::on_batch_begin/end) are keyed on the context:
/// a bracket opens before the first delivery of a run, and closes when the
/// next item belongs to another context, when a task runs, or when the
/// ring batch is drained -- so a bracketed process never spans foreign
/// work. It is abandoned, without on_batch_end, when its context is found
/// crashed or its process replaced: the hooks only amortize, and a revived
/// or replaced process flushes what the abandoned bracket left pending at
/// its next batch (indistinguishable from network delay).
void consume(MailboxShard* box) {
  Context* open = nullptr;
  net::IProcess* open_proc = nullptr;
  auto close = [&open, &open_proc] {
    if (open == nullptr) return;
    Context* ctx = std::exchange(open, nullptr);
    ctx->active.fetch_add(1, std::memory_order_seq_cst);
    if (!ctx->crashed.load(std::memory_order_seq_cst) &&
        ctx->process.load(std::memory_order_acquire) == open_proc) {
      open_proc->on_batch_end(ctx->shard);
    }
    ctx->active.fetch_sub(1, std::memory_order_release);
  };
  auto handle = [&open, &open_proc, &close](MailItem& item) {
    Context* ctx = item.ctx;
    if (open != nullptr && (open != ctx || item.fn)) close();
    ctx->active.fetch_add(1, std::memory_order_seq_cst);
    if (ctx->crashed.load(std::memory_order_seq_cst)) {
      open = nullptr;  // crashed: abandon the bracket, never re-enter
    } else if (item.fn) {
      if (item.incarnation == ctx->incarnation.load(std::memory_order_acquire)) {
        item.fn();
      }
    } else {
      net::IProcess* proc = ctx->process.load(std::memory_order_acquire);
      if (open == nullptr || open_proc != proc) {
        proc->on_batch_begin(ctx->shard);
        open = ctx;
        open_proc = proc;
      }
      proc->on_message(item.env);
    }
    ctx->active.fetch_sub(1, std::memory_order_release);
  };
  while (box->pop_wait_consume(handle)) close();
}

}  // namespace

// --- LoopShard -------------------------------------------------------------

LoopShard::LoopShard() {
  epoll_fd_ = ::epoll_create1(0);
  assert(epoll_fd_ >= 0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  assert(wake_fd_ >= 0);
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  assert(timer_fd_ >= 0);
  for (const int fd : {wake_fd_, timer_fd_}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

LoopShard::~LoopShard() {
  stop();
  for (int* fd : {&timer_fd_, &wake_fd_, &epoll_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

TimeNs LoopShard::mono_now() {
  // The timerfd's clock: deadlines are armed as absolute CLOCK_MONOTONIC.
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<TimeNs>(ts.tv_sec) * 1'000'000'000 +
         static_cast<TimeNs>(ts.tv_nsec);
}

void LoopShard::start() {
  assert(!running_.load(std::memory_order_acquire));
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
}

void LoopShard::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  assert(!on_loop_thread() && "stop() from the loop thread would self-join");
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t w = ::write(wake_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
}

bool LoopShard::on_loop_thread() const {
  return thread_.joinable() && std::this_thread::get_id() == thread_.get_id();
}

void LoopShard::wake() {
  // Sleep/wake handshake: the eventfd syscall is only needed when the loop
  // is parked (or parking) in epoll_wait. A busy loop re-checks the queues
  // under mu_ before it next parks, so enqueue-then-see-!polling_ means the
  // task is guaranteed to be drained without any wake. When it *is*
  // parked, coalesce: one unconsumed eventfd write is enough.
  if (!polling_.load(std::memory_order_acquire)) return;
  if (wake_pending_.exchange(true, std::memory_order_acq_rel)) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t w = ::write(wake_fd_, &one, sizeof(one));
}

void LoopShard::post(std::function<void()> fn) {
  {
    MutexLock lock(mu_);
    tasks_.push_back(std::move(fn));
  }
  wake();
}

void LoopShard::run_after(TimeNs delta_ns, std::function<void()> fn) {
  {
    MutexLock lock(mu_);
    new_timers_.push_back(Timer{mono_now() + delta_ns, 0, std::move(fn)});
  }
  // Wake so the loop merges the timer and re-arms against its deadline.
  wake();
}

void LoopShard::add_fd(int fd, uint32_t events, FdHandler handler) {
  assert(on_loop_thread());
  handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  [[maybe_unused]] int rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  assert(rc == 0);
}

void LoopShard::mod_fd(int fd, uint32_t events) {
  assert(on_loop_thread());
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  [[maybe_unused]] int rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  assert(rc == 0);
}

void LoopShard::del_fd(int fd) {
  assert(on_loop_thread());
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

bool LoopShard::has_fd(int fd) const {
  assert(on_loop_thread());
  return handlers_.count(fd) != 0;
}

bool LoopShard::drain_tasks() {
  // Re-arm wake() BEFORE swapping the queue: a post() that lands after this
  // store is either included in the swap below (its wake was spurious) or
  // arrives later and issues a fresh eventfd write -- either way the loop
  // cannot park with work queued.
  wake_pending_.store(false, std::memory_order_release);
  // Swap the whole queue out so task bodies (which may post more tasks,
  // even to this shard) never run under mu_.
  std::deque<std::function<void()>> tasks;
  {
    MutexLock lock(mu_);
    tasks.swap(tasks_);
  }
  for (auto& fn : tasks) fn();
  return !tasks.empty();
}

void LoopShard::run_timers() {
  const auto later = [](const Timer& a, const Timer& b) {
    return a.due != b.due ? a.due > b.due : a.seq > b.seq;
  };
  {
    MutexLock lock(mu_);
    for (auto& t : new_timers_) {
      t.seq = ++timer_seq_;
      heap_.push_back(std::move(t));
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
    new_timers_.clear();
  }
  while (!heap_.empty() && heap_.front().due <= mono_now()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Timer t = std::move(heap_.back());
    heap_.pop_back();
    t.fn();
  }
  // Timers cannot be cancelled, so an armed deadline is never later than
  // the heap's front: re-arm only when an earlier timer arrived or the
  // armed one fired. An empty heap leaves a past deadline armed; its
  // expiry costs one idle pass.
  if (heap_.empty() || heap_.front().due == armed_due_) return;
  armed_due_ = heap_.front().due;
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(armed_due_ / 1'000'000'000);
  spec.it_value.tv_nsec = static_cast<long>(armed_due_ % 1'000'000'000);
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
}

void LoopShard::loop() {
  epoll_event evs[kMaxEvents];
  bool yielded = false;
  while (running_.load(std::memory_order_acquire)) {
    const bool ran_tasks = drain_tasks();
    run_timers();
    // Non-blocking poll first: under load the next readiness is usually
    // already here and the park/wake machinery below never runs.
    int n = ::epoll_wait(epoll_fd_, evs, kMaxEvents, 0);
    if (n == 0 && !ran_tasks) {
      // Nothing at all this pass. Yield once before parking: on a loaded
      // box the thread about to feed us (a mailbox consumer mid-handler)
      // is runnable right now, and letting it run turns a park + eventfd
      // wake + context switch into a plain reschedule (same heuristic as
      // runtime/mailbox.h pop_wait_consume).
      if (!yielded) {
        yielded = true;
        std::this_thread::yield();
        continue;
      }
      // Park protocol: publish the intent to sleep, then re-check the task
      // and timer queues under mu_. A poster that enqueued after the drain
      // above but saw polling_ == false skipped its wake -- this re-check
      // is what makes that safe (mu_'s acquire/release pairs with the
      // poster's enqueue; the seq_cst store orders it before the reads).
      // Timers need no timeout: the armed timerfd wakes the park.
      polling_.store(true, std::memory_order_seq_cst);
      bool queued;
      {
        MutexLock lock(mu_);
        queued = !tasks_.empty() || !new_timers_.empty();
      }
      n = ::epoll_wait(epoll_fd_, evs, kMaxEvents, queued ? 0 : -1);
      polling_.store(false, std::memory_order_release);
    }
    if (n != 0 || ran_tasks) yielded = false;
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const int fd = evs[i].data.fd;
      if (fd == wake_fd_ || fd == timer_fd_) {
        uint64_t v;
        [[maybe_unused]] ssize_t r = ::read(fd, &v, sizeof(v));
        if (fd == timer_fd_) armed_due_ = 0;  // fired: next pass re-arms
        continue;
      }
      // Look the handler up per event: a handler earlier in this batch may
      // have del_fd()'d this one (e.g. closed a sibling connection).
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      // Keep the closure alive across the call even if it del_fd()s itself.
      std::shared_ptr<FdHandler> h = it->second;
      (*h)(evs[i].events);
    }
  }
  // Final drain: stop() posts rundown work (e.g. outbox flushes) before
  // flipping running_; run what is already queued, then exit. Timers are
  // dropped by contract.
  drain_tasks();
}

// --- EventLoop -------------------------------------------------------------

EventLoop::EventLoop(size_t shards) {
  shards_.reserve(std::max<size_t>(shards, 1));
  for (size_t i = 0; i < std::max<size_t>(shards, 1); ++i) {
    shards_.push_back(std::make_unique<LoopShard>());
  }
}

void EventLoop::start() {
  for (auto& s : shards_) s->start();
}

void EventLoop::stop() {
  for (auto& s : shards_) s->stop();
}

size_t EventLoop::shard_of(const ProcessId& pid) const {
  // Stable under the endpoint's lifetime AND across runs: hash only the
  // identity, never a pointer or registration order (tests pin this).
  uint8_t key[5];
  key[0] = static_cast<uint8_t>(pid.role);
  key[1] = static_cast<uint8_t>(pid.index);
  key[2] = static_cast<uint8_t>(pid.index >> 8);
  key[3] = static_cast<uint8_t>(pid.index >> 16);
  key[4] = static_cast<uint8_t>(pid.index >> 24);
  return fnv1a64(key, sizeof(key)) % shards_.size();
}

size_t EventLoop::next_conn_shard() {
  return conn_rr_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
}

bool EventLoop::on_loop_thread() const {
  for (const auto& s : shards_) {
    if (s->on_loop_thread()) return true;
  }
  return false;
}

// --- Executor --------------------------------------------------------------

Executor::Executor(const net::TransportOptions& options,
                   net::NetworkMetrics* metrics)
    : metrics_(metrics), loop_(options.loop_shards) {
  const size_t consumers = std::max<size_t>(options.mailbox_shards, 1);
  boxes_.reserve(consumers);
  for (size_t i = 0; i < consumers; ++i) {
    boxes_.push_back(std::make_unique<MailboxShard>());
  }
}

Executor::~Executor() { stop(); }

MailboxShard* Executor::assign_context() {
  return boxes_[next_box_++ % boxes_.size()].get();
}

Executor::Slot* Executor::add_process(const ProcessId& pid,
                                      net::IProcess* process) {
  assert(!running_.load(std::memory_order_acquire));
  assert(find(pid) == nullptr && "process registered twice");
  auto slot = std::make_unique<Slot>();
  slot->home = loop_.shard_of(pid);
  const uint32_t nctx = std::max<uint32_t>(1, process->delivery_shards());
  slot->contexts.reserve(nctx);
  for (uint32_t s = 0; s < nctx; ++s) {
    auto ctx = std::make_unique<Context>();
    ctx->process.store(process, std::memory_order_relaxed);
    ctx->shard = s;
    ctx->box = assign_context();
    slot->contexts.push_back(std::move(ctx));
  }
  auto& slots = by_role_[static_cast<uint8_t>(pid.role)];
  if (slots.size() <= pid.index) slots.resize(pid.index + 1, nullptr);
  slots[pid.index] = slot.get();
  slots_.push_back(std::move(slot));
  return slots_.back().get();
}

Executor::Slot* Executor::find(const ProcessId& pid) const {
  const auto role = static_cast<uint8_t>(pid.role);
  if (role >= 3) return nullptr;
  const auto& slots = by_role_[role];
  return pid.index < slots.size() ? slots[pid.index] : nullptr;
}

void Executor::start() {
  [[maybe_unused]] const bool was_running =
      running_.exchange(true, std::memory_order_acq_rel);
  assert(!was_running);
  consumers_.reserve(boxes_.size());
  for (auto& box : boxes_) {
    MailboxShard* b = box.get();
    consumers_.emplace_back([b] { consume(b); });
  }
  for (const auto& slot : slots_) {
    Context* ctx = slot->contexts[0].get();
    push(MailItem{ctx, {}, [ctx] {
                    ctx->process.load(std::memory_order_acquire)->on_start();
                  }});
  }
  loop_.start();
}

bool Executor::on_executor_thread() const {
  if (loop_.on_loop_thread()) return true;
  const auto self = std::this_thread::get_id();
  for (const auto& t : consumers_) {
    if (t.joinable() && self == t.get_id()) return true;
  }
  return false;
}

void Executor::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Joining our own thread would deadlock; stop() is an external-thread
  // API.
  assert(!on_executor_thread() && "stop() called from an executor thread");
  // Loop shards first: nothing publishes new work once they are gone (bar
  // handlers still draining), then the consumers drain what is queued.
  loop_.stop();
  for (auto& box : boxes_) box->stop();
  for (auto& t : consumers_) {
    if (t.joinable()) t.join();
  }
}

void Executor::push(MailItem item) {
  if (item.ctx->box->push_item(std::move(item))) metrics_->on_mailbox_overflow();
}

void Executor::deliver(Slot* slot, net::Envelope env) {
  Context* ctx = slot->contexts[0].get();
  if (slot->contexts.size() > 1) {
    // shard_of runs on the producing thread by contract (pure function of
    // the envelope); the modulo keeps a buggy override in range.
    const uint32_t shard =
        ctx->process.load(std::memory_order_acquire)->shard_of(env) %
        static_cast<uint32_t>(slot->contexts.size());
    ctx = slot->contexts[shard].get();
  }
  push(MailItem{ctx, std::move(env), nullptr});
}

void Executor::post(const ProcessId& pid, std::function<void()> fn) {
  post_after(pid, 0, std::move(fn));
}

void Executor::post_after(const ProcessId& pid, TimeNs delta,
                          std::function<void()> fn) {
  Slot* slot = find(pid);
  if (slot == nullptr) return;
  Context* ctx = slot->contexts[0].get();
  // Stamped when armed, not when due: a restart in between retires it.
  const uint64_t incarnation = ctx->incarnation.load(std::memory_order_acquire);
  if (delta == 0) {
    push(MailItem{ctx, {}, std::move(fn), incarnation});
    return;
  }
  run_after(slot, delta, [this, ctx, incarnation, fn = std::move(fn)]() mutable {
    push(MailItem{ctx, {}, std::move(fn), incarnation});
  });
}

void Executor::run_after(const Slot* slot, TimeNs delta,
                         std::function<void()> fn) {
  loop_.shard(slot->home).run_after(delta, std::move(fn));
}

void Executor::mark_crashed(const ProcessId& pid) {
  if (Slot* slot = find(pid)) {
    // seq_cst pairs with the consumer's seq_cst entry token: see quiesce().
    for (auto& ctx : slot->contexts) {
      ctx->crashed.store(true, std::memory_order_seq_cst);
    }
  }
}

void Executor::quiesce(const ProcessId& pid) {
  Slot* slot = find(pid);
  if (slot == nullptr) return;
  // Dekker handshake with the consumer: it increments the context's token
  // seq_cst and THEN checks crashed. In the single total order, either the
  // consumer saw crashed == true (and skips the item), or its increment
  // precedes our crashed store -- in which case the load below observes
  // the token held until that handler exits. Once every token reads 0, no
  // handler of the old process runs or can start.
  for (const auto& ctx : slot->contexts) {
    assert(ctx->crashed.load(std::memory_order_seq_cst) &&
           "quiesce() requires mark_crashed() first");
    while (ctx->active.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }
}

void Executor::replace_process(const ProcessId& pid, net::IProcess* process) {
  Slot* slot = find(pid);
  if (slot == nullptr) return;
  assert(std::max<uint32_t>(1, process->delivery_shards()) ==
             slot->contexts.size() &&
         "replacement process must use the same shard count");
  // Release pairs with the consumer's per-item acquire load: everything the
  // replacement's constructor did (WAL replay included) is visible before
  // any handler runs it. The incarnation advance retires every task and
  // timer of the old object.
  for (auto& ctx : slot->contexts) {
    ctx->process.store(process, std::memory_order_release);
    ctx->incarnation.fetch_add(1, std::memory_order_release);
  }
}

void Executor::revive(const ProcessId& pid) {
  if (Slot* slot = find(pid)) {
    for (auto& ctx : slot->contexts) {
      ctx->crashed.store(false, std::memory_order_seq_cst);
    }
  }
}

}  // namespace bftreg::runtime
