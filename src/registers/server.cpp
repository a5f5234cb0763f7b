#include "registers/server.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "common/log.h"

namespace bftreg::registers {

RegisterServer::RegisterServer(ProcessId self, SystemConfig config,
                               net::Transport* transport, Bytes initial)
    : self_(self),
      config_(std::move(config)),
      transport_(transport),
      initial_(std::move(initial)) {
  const size_t nshards = std::max<size_t>(1, config_.server_shards);
  shards_.reserve(nshards);
  for (size_t s = 0; s < nshards; ++s) {
    shards_.push_back(std::make_unique<Shard>(initial_, config_.store_policy,
                                              config_.max_history));
  }
  // The default register exists from the start.
  Shard& home = shard_for(0);
  MutexLock lock(home.mu);
  stored_bytes_.fetch_add(home.store.materialize(0).second,
                          std::memory_order_relaxed);
}

uint32_t RegisterServer::delivery_shards() const {
  return static_cast<uint32_t>(shards_.size());
}

uint32_t RegisterServer::shard_of(const net::Envelope& env) const {
  // Wire layout (messages.h): the compact encoding keeps a fixed-width
  // prefix -- type u8 at 0, op_id u64 at 1, object u32 little-endian at 9
  // -- ahead of its presence byte and varint fields. Peeking avoids a full
  // defensive parse per routing decision; anything shorter than the fixed
  // prefix cannot be a valid message and lands on shard 0 for the parser
  // to reject.
  constexpr size_t kObjectOffset = 1 + 8;
  if (env.payload.size() < kObjectOffset + 4) return 0;
  const uint8_t* p = env.payload.data() + kObjectOffset;
  const uint32_t object = static_cast<uint32_t>(p[0]) |
                          (static_cast<uint32_t>(p[1]) << 8) |
                          (static_cast<uint32_t>(p[2]) << 16) |
                          (static_cast<uint32_t>(p[3]) << 24);
  return owner_shard(object);
}

uint32_t RegisterServer::owner_shard(uint32_t object) const {
  if (shards_.size() == 1) return 0;
  return static_cast<uint32_t>(fnv1a64(&object, sizeof(object)) %
                               shards_.size());
}

RegisterServer::Shard& RegisterServer::shard_for(uint32_t object) {
  return *shards_[owner_shard(object)];
}

const RegisterServer::Shard& RegisterServer::shard_for(uint32_t object) const {
  return *shards_[owner_shard(object)];
}

std::vector<TaggedValue> RegisterServer::store(uint32_t object) const {
  std::vector<TaggedValue> out;
  const Shard& shard = shard_for(object);
  MutexLock lock(shard.mu);
  const auto* rec = shard.store.find(object);
  if (rec == nullptr) {
    out.push_back(TaggedValue{Tag::initial(), initial_});
    return out;
  }
  out.reserve(rec->log.size());
  for (const LogEntry& e : rec->log) {
    const BytesView v = e.val.view();
    out.push_back(TaggedValue{e.tag, Bytes(v.begin(), v.end())});
  }
  return out;
}

std::pair<Tag, Bytes> RegisterServer::newest_entry(uint32_t object) const {
  const Shard& shard = shard_for(object);
  MutexLock lock(shard.mu);
  const auto* rec = shard.store.find(object);
  if (rec == nullptr) return {Tag::initial(), initial_};
  const LogEntry& newest = rec->log.newest();
  const BytesView v = newest.val.view();
  return {newest.tag, Bytes(v.begin(), v.end())};
}

Tag RegisterServer::max_tag(uint32_t object) const {
  const Shard& shard = shard_for(object);
  MutexLock lock(shard.mu);
  const auto* rec = shard.store.find(object);
  return rec == nullptr ? Tag::initial() : rec->log.newest().tag;
}

size_t RegisterServer::stored_bytes() const {
  const size_t total = stored_bytes_.load(std::memory_order_relaxed);
#ifndef NDEBUG
  // Quiescent callers only (see header): cross-check the incremental
  // counter against the full walk it replaced.
  size_t walked = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    walked += shard->store.walk_value_bytes();
  }
  assert(walked == total && "incremental stored_bytes diverged from walk");
#endif
  return total;
}

size_t RegisterServer::objects_known() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->store.size();
  }
  return total;
}

std::vector<uint32_t> RegisterServer::object_ids() const {
  std::vector<uint32_t> out;
  out.reserve(objects_known());
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->store.for_each([&out](const CompactObjectStore::ObjectRec& rec) {
      out.push_back(rec.object);
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

void RegisterServer::reply(const ProcessId& to, const RegisterMessage& msg) {
  transport_->send(self_, to, msg.encode());
}

void RegisterServer::handle_query_objects(const ProcessId& from,
                                          const RegisterMessage& req) {
  // Same cap as QUERY-DATA-BATCH: the recovering peer syncs in batches, and
  // an unbounded id list would let a ballooned store forge a huge reply.
  constexpr size_t kMaxObjects = 4096;
  RegisterMessage resp;
  resp.type = MsgType::kObjectsResp;
  resp.op_id = req.op_id;
  resp.objects.reserve(std::min(kMaxObjects, objects_known()));
  for (const auto& shard : shards_) {
    {
      MutexLock lock(shard->mu);
      shard->store.for_each([&resp](const CompactObjectStore::ObjectRec& rec) {
        resp.objects.push_back(rec.object);
      });
    }
    if (resp.objects.size() >= kMaxObjects) break;
  }
  std::sort(resp.objects.begin(), resp.objects.end());
  if (resp.objects.size() > kMaxObjects) resp.objects.resize(kMaxObjects);
  reply(from, resp);
}

void RegisterServer::on_message(const net::Envelope& env) {
  auto msg = RegisterMessage::parse(env.payload);
  if (!msg) {
    LOG_DEBUG << to_string(self_) << ": dropping malformed payload from "
              << to_string(env.from);
    return;
  }
  switch (msg->type) {
    case MsgType::kQueryTag:
      handle_query_tag(env.from, *msg);
      break;
    case MsgType::kPutData:
      handle_put_data(env.from, std::move(*msg));
      break;
    case MsgType::kQueryData:
      handle_query_data(env.from, *msg);
      break;
    case MsgType::kQueryHistory:
      handle_query_history(env.from, *msg);
      break;
    case MsgType::kQueryTagHistory:
      handle_query_tag_history(env.from, *msg);
      break;
    case MsgType::kQueryDataAt:
      handle_query_data_at(env.from, *msg);
      break;
    case MsgType::kReadDone:
      handle_read_done(env.from, *msg);
      break;
    case MsgType::kQueryDataBatch:
      handle_query_data_batch(env.from, *msg);
      break;
    case MsgType::kQueryObjects:
      handle_query_objects(env.from, *msg);
      break;
    default:
      // Response types and RB frames are not for a basic server.
      break;
  }
}

void RegisterServer::handle_query_tag(const ProcessId& from,
                                      const RegisterMessage& req) {
  RegisterMessage resp;
  resp.type = MsgType::kTagResp;
  resp.op_id = req.op_id;
  resp.object = req.object;
  resp.tag = max_tag(req.object);
  reply(from, resp);
}

bool RegisterServer::apply_put(uint32_t object, const Tag& tag, Bytes value) {
  Shard& shard = shard_for(object);
  CompactObjectStore::ApplyResult res;
  {
    MutexLock lock(shard.mu);
    res = shard.store.apply(object, tag, value);
  }
  if (res.bytes_delta >= 0) {
    stored_bytes_.fetch_add(static_cast<size_t>(res.bytes_delta),
                            std::memory_order_relaxed);
  } else {
    stored_bytes_.fetch_sub(static_cast<size_t>(-res.bytes_delta),
                            std::memory_order_relaxed);
  }
  if (!res.added) return false;
  puts_applied_.fetch_add(1, std::memory_order_relaxed);

  // Wake any readers whose two-round get-data asked for this tag. The value
  // comes from the put itself, not a store lookup: GC may already have
  // dropped the entry (tiny max_history), but the (tag, value) pair we were
  // asked to witness is right here.
  if (auto* waiters = shard.deferred.find({object, tag})) {
    RegisterMessage resp;
    resp.type = MsgType::kDataAtResp;
    resp.object = object;
    resp.tag = tag;
    resp.value = std::move(value);
    for (const auto& [reader, op_id] : *waiters) {
      resp.op_id = op_id;
      // Unindex the satisfied waiter (its other deferred keys, if any, stay).
      if (auto* rev = shard.deferred_by_op.find({reader, op_id})) {
        std::erase(*rev, std::make_pair(object, tag));
        if (rev->empty()) shard.deferred_by_op.erase({reader, op_id});
      }
      reply(reader, resp);
    }
    shard.deferred.erase({object, tag});
  }
  return true;
}

void RegisterServer::handle_put_data(const ProcessId& from, RegisterMessage req) {
  apply_put(req.object, req.tag, std::move(req.value));
  // Fig. 3: the ACK is sent regardless of whether the entry was new.
  RegisterMessage ack;
  ack.type = MsgType::kAck;
  ack.op_id = req.op_id;
  ack.object = req.object;
  ack.tag = req.tag;
  reply(from, ack);
}

void RegisterServer::handle_query_data(const ProcessId& from,
                                       const RegisterMessage& req) {
  RegisterMessage resp;
  resp.type = MsgType::kDataResp;
  resp.op_id = req.op_id;
  resp.object = req.object;
  std::tie(resp.tag, resp.value) = newest_entry(req.object);
  reply(from, resp);
}

void RegisterServer::handle_query_history(const ProcessId& from,
                                          const RegisterMessage& req) {
  RegisterMessage resp;
  resp.type = MsgType::kHistoryResp;
  resp.op_id = req.op_id;
  resp.object = req.object;
  resp.history = store(req.object);
  reply(from, resp);
}

void RegisterServer::handle_query_tag_history(const ProcessId& from,
                                              const RegisterMessage& req) {
  RegisterMessage resp;
  resp.type = MsgType::kTagHistoryResp;
  resp.op_id = req.op_id;
  resp.object = req.object;
  {
    const Shard& shard = shard_for(req.object);
    MutexLock lock(shard.mu);
    if (const auto* rec = shard.store.find(req.object)) {
      resp.tags.reserve(rec->log.size());
      for (const LogEntry& e : rec->log) resp.tags.push_back(e.tag);
    } else {
      resp.tags.push_back(Tag::initial());
    }
  }
  reply(from, resp);
}

void RegisterServer::handle_query_data_at(const ProcessId& from,
                                          const RegisterMessage& req) {
  Shard& shard = shard_for(req.object);
  RegisterMessage resp;
  resp.op_id = req.op_id;
  resp.object = req.object;
  resp.tag = req.tag;
  bool found = false;
  {
    MutexLock lock(shard.mu);
    if (const auto* rec = shard.store.find(req.object)) {
      if (const LogEntry* e = rec->log.find(req.tag)) {
        const BytesView value = e->val.view();
        resp.value.assign(value.begin(), value.end());
        found = true;
      }
    } else if (req.tag == Tag::initial()) {
      resp.value = initial_;  // unknown object reads as its lazy init
      found = true;
    }
  }
  if (found) {
    resp.type = MsgType::kDataAtResp;
    reply(from, resp);
    return;
  }
  // Not known yet: tell the reader so, and defer a real answer until the
  // corresponding PUT-DATA reaches us (channels are reliable, so unless the
  // writer crashed mid-multicast it eventually will; see the liveness note
  // on TwoRoundReadOp in protocol_ops.h). PUT-DATA for this object routes
  // to this shard, so the wake-up in apply_put finds the waiter locally.
  shard.deferred[{req.object, req.tag}].emplace_back(from, req.op_id);
  shard.deferred_by_op[{from, req.op_id}].emplace_back(req.object, req.tag);
  resp.type = MsgType::kDataAtMissing;
  reply(from, resp);
}

void RegisterServer::handle_query_data_batch(const ProcessId& from,
                                             const RegisterMessage& req) {
  // Cap the batch: an oversized request must not balloon server state with
  // lazily created stores (the model's clients are crash-only, but defense
  // in depth costs nothing).
  constexpr size_t kMaxBatch = 4096;
  const size_t count = std::min(req.objects.size(), kMaxBatch);

  RegisterMessage resp;
  resp.type = MsgType::kDataBatchResp;
  resp.op_id = req.op_id;
  resp.objects.assign(req.objects.begin(),
                      req.objects.begin() + static_cast<long>(count));
  resp.history.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // The request's objects may be owned by other shards: newest_entry
    // reads each under its owner's mutex, one mutex at a time.
    auto [tag, value] = newest_entry(req.objects[i]);
    resp.history.push_back(TaggedValue{tag, std::move(value)});
  }
  reply(from, resp);
}

void RegisterServer::handle_read_done(const ProcessId& from,
                                      const RegisterMessage& req) {
  // Exact-match on the op id: ids are namespaced per (client, object,
  // protocol) and therefore NOT monotone across a client's concurrent
  // operations -- a range erase (op_id <= done id) would cancel deferred
  // replies belonging to that client's still-running reads in other
  // namespaces. The reverse index pinpoints this op's deferred keys, so
  // the cancel never touches other readers' waiters. READ-DONE carries the
  // op's object id, so it routes to the shard holding those waiters.
  Shard& shard = shard_for(req.object);
  auto* keys = shard.deferred_by_op.find({from, req.op_id});
  if (keys == nullptr) return;
  for (const auto& key : *keys) {
    auto* waiters = shard.deferred.find(key);
    if (waiters == nullptr) continue;
    std::erase_if(*waiters, [&](const auto& w) {
      return w.first == from && w.second == req.op_id;
    });
    if (waiters->empty()) shard.deferred.erase(key);
  }
  shard.deferred_by_op.erase({from, req.op_id});
}

}  // namespace bftreg::registers
