#include "tracing.h"

#include "registers/messages.h"

namespace bftreg::qb {

using registers::MsgType;

namespace {

uint64_t mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t pid_bits(const ProcessId& p) {
  return (static_cast<uint64_t>(p.role) << 32) | p.index;
}

OpKind kind_of_reply(uint8_t type) {
  return type == static_cast<uint8_t>(MsgType::kDataResp) ? kRead : kWrite;
}

}  // namespace

WirePeek peek_wire(BytesView payload) {
  WirePeek w;
  if (payload.size() < 9) return w;
  w.ok = true;
  w.type = payload[0];
  for (int i = 0; i < 8; ++i) {
    w.op_id |= static_cast<uint64_t>(payload[1 + i]) << (8 * i);
  }
  return w;
}

uint64_t TransitMatcher::key(const ProcessId& from, const ProcessId& to,
                             const WirePeek& w) {
  uint64_t h = mix64(w.op_id);
  h = mix64(h ^ pid_bits(from));
  h = mix64(h ^ pid_bits(to));
  return mix64(h ^ w.type);
}

void TransitMatcher::match(uint64_t key, uint8_t type, int64_t t_ns,
                           bool is_send) {
  Shard& s = shards_[key & (shards_.size() - 1)];
  int64_t other = 0;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.open.find(key);
    if (it == s.open.end() || it->second.is_send == is_send) {
      // First half, or the same side again (a retransmit): keep the latest.
      s.open[key] = Half{t_ns, is_send};
      return;
    }
    other = it->second.t_ns;
    s.open.erase(it);
  }
  const int64_t sent = is_send ? t_ns : other;
  const int64_t received = is_send ? other : t_ns;
  const uint64_t d =
      received > sent ? static_cast<uint64_t>(received - sent) : 0;
  by_type_[type % by_type_.size()].record(d);
  all_.record(d);
}

void Tracer::sample_size(size_t bytes) {
  const uint64_t i = size_seen_.fetch_add(1, std::memory_order_relaxed);
  if (i % 16 != 0 || i / 16 >= kSizeSlots) return;
  size_slots_[i / 16].store(static_cast<uint32_t>(bytes),
                            std::memory_order_relaxed);
}

std::vector<size_t> Tracer::sizes() const {
  std::vector<size_t> out;
  for (const auto& slot : size_slots_) {
    const uint32_t v = slot.load(std::memory_order_relaxed);
    if (v != 0) out.push_back(v);
  }
  return out;
}

thread_local uint64_t* TracingTransport::capture_op_id = nullptr;

void TracingTransport::send_payload(const ProcessId& from, const ProcessId& to,
                                    Payload payload) {
  if (!tracer_->on()) {
    inner_->send_payload(from, to, std::move(payload));
    return;
  }
  const WirePeek w = peek_wire(payload.view());
  tracer_->sample_size(payload.size());
  if (capture_op_id != nullptr && w.ok) *capture_op_id = w.op_id;
  const int64_t t0 = steady_ns();
  inner_->send_payload(from, to, std::move(payload));
  const int64_t t1 = steady_ns();
  tracer_->send_ns.record(static_cast<uint64_t>(t1 - t0));
  if (w.ok) {
    tracer_->transit.on_send(TransitMatcher::key(from, to, w), w.type, t1);
  }
}

void TracedClient::on_message(const net::Envelope& env) {
  if (!tracer_->on()) {
    inner_->on_message(env);
    return;
  }
  const int64_t t0 = steady_ns();
  const WirePeek w = peek_wire(env.payload.view());
  bool known = false;
  bool useful = false;
  if (w.ok) {
    tracer_->transit.on_receive(TransitMatcher::key(env.from, env.to, w),
                                w.type, t0);
    const auto it = slot_of_wire_.find(w.op_id);
    known = it != slot_of_wire_.end();
    useful = known && !done_[it->second];
  }
  inner_->on_message(env);
  reply_ns[kind_of_reply(w.type)].record(
      static_cast<uint64_t>(steady_ns() - t0));
  // Replies to ops started before tracing began are not counted: their op
  // is not in the slot table.
  if (known) {
    replies.fetch_add(1, std::memory_order_relaxed);
    if (useful) useful_replies.fetch_add(1, std::memory_order_relaxed);
  }
}

void TracedServer::on_message(const net::Envelope& env) {
  if (!tracer_->on()) {
    inner_->on_message(env);
    return;
  }
  const int64_t t0 = steady_ns();
  const WirePeek w = peek_wire(env.payload.view());
  if (w.ok) {
    tracer_->transit.on_receive(TransitMatcher::key(env.from, env.to, w),
                                w.type, t0);
  }
  inner_->on_message(env);
  const auto d = static_cast<uint64_t>(steady_ns() - t0);
  switch (static_cast<MsgType>(w.type)) {
    case MsgType::kQueryTag:
    case MsgType::kQueryData:
      query_ns.record(d);
      break;
    case MsgType::kPutData:
      put_ns.record(d);
      break;
    default:
      break;
  }
  busy_ns.fetch_add(d, std::memory_order_relaxed);
  ++batch_msgs_[inner_->shard_of(env)];
}

void TracedServer::on_batch_begin(uint32_t shard) {
  batch_msgs_[shard] = 0;
  inner_->on_batch_begin(shard);
}

void TracedServer::on_batch_end(uint32_t shard) {
  if (!tracer_->on()) {
    inner_->on_batch_end(shard);
    return;
  }
  const int64_t t0 = steady_ns();
  inner_->on_batch_end(shard);
  const auto d = static_cast<uint64_t>(steady_ns() - t0);
  batch_end_ns.record(d);
  busy_ns.fetch_add(d, std::memory_order_relaxed);
  batches.fetch_add(1, std::memory_order_relaxed);
  batched_msgs.fetch_add(batch_msgs_[shard], std::memory_order_relaxed);
}

}  // namespace bftreg::qb
