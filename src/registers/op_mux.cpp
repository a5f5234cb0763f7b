#include "registers/op_mux.h"

#include <cassert>

namespace bftreg::registers {

// --- PendingOp services -----------------------------------------------------

const SystemConfig& PendingOp::config() const { return mux_->config(); }

net::Transport* PendingOp::transport() const { return mux_->transport(); }

const ProcessId& PendingOp::self() const { return mux_->id(); }

void PendingOp::send_to_all_servers(const RegisterMessage& msg) {
  // One buffer for the whole fan-out: every destination shares it.
  const Payload payload(msg.encode());
  for (uint32_t i = 0; i < config().n; ++i) {
    transport()->send_payload(self(), ProcessId::server(i), payload);
  }
}

void PendingOp::send_to_server(uint32_t index, const RegisterMessage& msg) {
  transport()->send(self(), ProcessId::server(index), msg.encode());
}

void PendingOp::fill_result(OpResult& out, int rounds) const {
  out.invoked_at = invoked_at_;
  out.completed_at = transport()->now();
  out.rounds = rounds;
  out.timed_out = timed_out_;
  out.retries = retries_;
}

std::unique_ptr<PendingOp> PendingOp::detach_self() {
  return mux_->detach(op_id_);
}

// --- OpMux ------------------------------------------------------------------

OpMux::OpMux(ProcessId self, SystemConfig config, net::Transport* transport)
    : self_(self),
      config_(std::move(config)),
      transport_(transport),
      alive_(std::make_shared<std::atomic<bool>>(true)) {}

OpMux::~OpMux() { alive_->store(false); }

uint64_t OpMux::allocate_op_id(OpKind kind, uint32_t object) {
  // Namespace hash over (protocol kind, object, client id): operations of
  // different protocols, objects, or clients draw from disjoint id spaces,
  // so a response can only ever match the operation that requested it.
  // Hash a hand-packed byte string, NOT a struct image: struct padding
  // bytes are indeterminate and would make the "same" namespace hash
  // differently on every call.
  uint8_t ns[10];
  ns[0] = static_cast<uint8_t>(kind);
  ns[1] = static_cast<uint8_t>(self_.role);
  for (int i = 0; i < 4; ++i) {
    ns[2 + i] = static_cast<uint8_t>(self_.index >> (8 * i));
    ns[6 + i] = static_cast<uint8_t>(object >> (8 * i));
  }
  uint32_t h = static_cast<uint32_t>(fnv1a64(ns, sizeof(ns)) >> 16);
  // Distinct namespaces can still collide in 32 bits; the sequence half
  // keeps live ids unique, and the loop below closes the (astronomically
  // rare) case of a collision between two live operations.
  uint64_t id;
  do {
    uint32_t& seq = next_seq_[h];
    ++seq;
    if (seq == 0) ++seq;  // wrapped after 2^32 ops in one namespace
    id = (static_cast<uint64_t>(h) << 32) | seq;
  } while (ops_.count(id) > 0);
  return id;
}

uint64_t OpMux::start(std::unique_ptr<PendingOp> op, OpKind kind,
                      uint32_t object, const RetryPolicy& policy) {
  assert(op != nullptr);
  PendingOp* raw = op.get();
  raw->mux_ = this;
  raw->object_ = object;
  raw->op_id_ = allocate_op_id(kind, object);
  raw->invoked_at_ = transport_->now();
  raw->policy_ = policy;
  raw->cur_timeout_ = policy.timeout;
  ops_.emplace(raw->op_id_, std::move(op));
  raw->send_request();
  if (policy.timeout > 0) arm_timer(raw);
  return raw->op_id_;
}

void OpMux::on_message(const net::Envelope& env) {
  if (!env.from.is_server()) return;
  auto msg = RegisterMessage::parse(env.payload);
  if (!msg) return;
  auto it = ops_.find(msg->op_id);
  if (it == ops_.end()) return;  // straggler or fabrication: no such op
  // The handler may complete the op (detach + destroy); `it` must not be
  // touched afterwards.
  it->second->on_response(env.from, std::move(*msg));
}

std::unique_ptr<PendingOp> OpMux::detach(uint64_t op_id) {
  auto it = ops_.find(op_id);
  assert(it != ops_.end() && "detach of an op not in flight");
  std::unique_ptr<PendingOp> op = std::move(it->second);
  ops_.erase(it);
  disarm(op.get());
  return op;
}

void OpMux::arm_timer(PendingOp* op) {
  op->deadline_ = transport_->now() + op->cur_timeout_;
  op->deadline_seq_ = ++arms_;
  deadlines_.emplace(DeadlineKey{op->deadline_, op->deadline_seq_}, op->op_id_);
  schedule_timer();
}

void OpMux::disarm(PendingOp* op) {
  if (op->deadline_seq_ == 0) return;
  deadlines_.erase(DeadlineKey{op->deadline_, op->deadline_seq_});
  op->deadline_seq_ = 0;
}

void OpMux::schedule_timer() {
  if (expiring_ || deadlines_.empty()) return;
  const TimeNs next = deadlines_.begin()->first.first;
  if (timer_at_ && *timer_at_ <= next) return;
  timer_at_ = next;
  const TimeNs now = transport_->now();
  transport_->post_after(self_, next > now ? next - now : 0,
                         [this, alive = alive_, gen = ++timer_gen_] {
                           if (!alive->load()) return;
                           on_timer(gen);
                         });
}

void OpMux::on_timer(uint64_t gen) {
  if (gen != timer_gen_) return;  // superseded by an earlier deadline's timer
  timer_at_.reset();
  expiring_ = true;
  const TimeNs now = transport_->now();
  while (!deadlines_.empty() && deadlines_.begin()->first.first <= now) {
    const auto it = ops_.find(deadlines_.begin()->second);
    assert(it != ops_.end() && "a live deadline outlived its op");
    PendingOp* op = it->second.get();
    disarm(op);
    expire(op);
  }
  expiring_ = false;
  schedule_timer();
}

void OpMux::expire(PendingOp* op) {
  if (op->retries_ < op->policy_.max_retries) {
    ++op->retries_;
    ++retransmits_;
    const double backoff = op->policy_.backoff < 1.0 ? 1.0 : op->policy_.backoff;
    op->cur_timeout_ =
        static_cast<TimeNs>(static_cast<double>(op->cur_timeout_) * backoff);
    // Same op id on the wire: responses to the earlier attempt still count.
    op->retransmit();
    arm_timer(op);
    return;
  }
  ++timeouts_;
  op->timed_out_ = true;
  // on_timeout() completes the op (detach + callback); it must be the last
  // touch of `op`.
  op->on_timeout();
}

}  // namespace bftreg::registers
