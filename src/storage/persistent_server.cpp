#include "storage/persistent_server.h"

#include <algorithm>

#include "common/log.h"

namespace bftreg::storage {

using registers::MsgType;
using registers::RegisterMessage;
using registers::TaggedValue;

PersistentRegisterServer::PersistentRegisterServer(ProcessId self,
                                                   registers::SystemConfig config,
                                                   net::Transport* transport,
                                                   Bytes initial,
                                                   std::string wal_path,
                                                   RecoveryPolicy policy)
    : RegisterServer(self, std::move(config), transport, std::move(initial)),
      wal_(std::move(wal_path)) {
  const ReplayResult replayed = WriteAheadLog::replay(wal_.path());
  truncated_ = replayed.truncated_bytes;
  recovering_ = true;
  for (const WalRecord& r : replayed.records) {
    if (RegisterServer::apply_put(r.object, r.tag, r.value)) ++recovered_;
  }
  recovering_ = false;
  if (policy == RecoveryPolicy::kCatchUpBeforeServe) {
    // Not serving until begin_catch_up() has run its course: the replayed
    // state may be missing writes that completed while this server was
    // down, and answering from it would under-witness them.
    serving_.store(false, std::memory_order_release);
  }
}

bool PersistentRegisterServer::apply_put(uint32_t object, const Tag& tag,
                                         Bytes value) {
  // Probe-then-log-then-apply would double the map lookups; instead apply
  // first and log on success. Both orders are equivalent here: the ACK is
  // only sent after this handler returns, so a crash mid-handler loses the
  // ACK along with (at worst) the log record.
  if (recovering_) {
    // Replayed records are never re-logged; skip the log-copy entirely so
    // recovery moves each (possibly large) coded element exactly once.
    return RegisterServer::apply_put(object, tag, std::move(value));
  }
  Bytes copy = value;  // keep bytes for the log; base consumes `value`
  const bool added = RegisterServer::apply_put(object, tag, std::move(value));
  if (added) {
    wal_.append(WalRecord{object, tag, std::move(copy)});
  }
  return added;
}

void PersistentRegisterServer::compact() {
  std::vector<WalRecord> live;
  for (const uint32_t object : object_ids()) {
    for (const auto& [tag, value] : store(object)) {
      if (tag.is_initial()) continue;  // seeded, not logged
      live.push_back(WalRecord{object, tag, value});
    }
  }
  wal_.compact(live);
}

// --- recovery state machine -------------------------------------------------

void PersistentRegisterServer::on_message(const net::Envelope& env) {
  if (is_serving()) {
    RegisterServer::on_message(env);
    return;
  }
  handle_catch_up_message(env);
}

std::vector<ProcessId> PersistentRegisterServer::peers() const {
  std::vector<ProcessId> out;
  out.reserve(config_.n - 1);
  for (const ProcessId& s : config_.servers()) {
    if (s != self_) out.push_back(s);
  }
  return out;
}

void PersistentRegisterServer::begin_catch_up() {
  if (is_serving()) return;
  if (config_.catch_up_quorum() == 0) {
    // Degenerate clusters (n = f + 1, or n = 1) have no peer quorum to sync
    // from; the replayed state is all there is.
    finish_catch_up();
    return;
  }
  RegisterMessage query;
  query.type = MsgType::kQueryObjects;
  query.op_id = kCatchUpObjectsOp;
  const Payload payload(query.encode());
  for (const ProcessId& p : peers()) {
    transport_->send_payload(self_, p, payload);
  }
}

void PersistentRegisterServer::handle_catch_up_message(const net::Envelope& env) {
  auto msg = RegisterMessage::parse(env.payload);
  if (!msg) return;
  switch (msg->type) {
    case MsgType::kObjectsResp: {
      if (batch_phase_ || msg->op_id != kCatchUpObjectsOp ||
          !env.from.is_server() || env.from.index >= config_.n) {
        return;
      }
      if (!objects_peers_.insert(env.from.index).second) return;  // one vote
      object_union_.insert(msg->objects.begin(), msg->objects.end());
      if (objects_peers_.size() >= config_.catch_up_quorum()) {
        start_batch_phase();
      }
      return;
    }
    case MsgType::kDataBatchResp: {
      if (!batch_phase_ || msg->op_id != kCatchUpBatchOp ||
          !env.from.is_server() || env.from.index >= config_.n) {
        return;
      }
      if (!batch_peers_.insert(env.from.index).second) return;  // one vote
      const size_t count = std::min(msg->objects.size(), msg->history.size());
      for (size_t i = 0; i < count; ++i) {
        ++votes_[msg->objects[i]][msg->history[i]];
      }
      if (batch_peers_.size() < config_.catch_up_quorum()) return;
      // Quorum of peers voted. Adopt every (tag, value) group at least
      // witness_threshold() distinct peers agree on -- that pins an honest
      // holder behind the pair, and (file comment) guarantees every
      // completed write clears the bar. Adoption goes through the normal
      // logged apply_put, so the synced state survives the next crash.
      for (const auto& [object, groups] : votes_) {
        for (const auto& [pair, vote_count] : groups) {
          if (vote_count < config_.witness_threshold()) continue;
          if (apply_put(object, pair.tag, pair.value)) ++adopted_;
        }
      }
      finish_catch_up();
      return;
    }
    case MsgType::kQueryTag:
    case MsgType::kPutData:
    case MsgType::kQueryData:
    case MsgType::kQueryHistory:
    case MsgType::kQueryTagHistory:
    case MsgType::kQueryDataAt:
    case MsgType::kReadDone:
    case MsgType::kQueryDataBatch:
    case MsgType::kQueryObjects:
      // The proof obligation of kCatchUpBeforeServe: register traffic gets
      // NO reply (not a refusal message -- to the client we are just slow,
      // which every protocol tolerates). Counted so tests can assert the
      // requests arrived and were provably not answered.
      refused_.fetch_add(1, std::memory_order_relaxed);
      return;
    default:
      return;  // stray responses / RB frames: ignore
  }
}

void PersistentRegisterServer::start_batch_phase() {
  batch_phase_ = true;
  if (object_union_.empty()) {
    // A quorum of peers stores nothing beyond lazy initialization; the
    // replayed state is already complete.
    finish_catch_up();
    return;
  }
  RegisterMessage query;
  query.type = MsgType::kQueryDataBatch;
  query.op_id = kCatchUpBatchOp;
  // Same cap as the peers' batch handler; a larger union would need
  // multiple rounds, which no current workload produces (the cap exists to
  // bound a single Byzantine peer's influence, and ids beyond it would
  // simply be re-synced on the next restart).
  constexpr size_t kMaxBatch = 4096;
  for (const uint32_t object : object_union_) {
    if (query.objects.size() >= kMaxBatch) {
      LOG_WARN << to_string(self_) << ": catch-up union exceeds " << kMaxBatch
               << " objects; truncating this sync round";
      break;
    }
    query.objects.push_back(object);
  }
  const Payload payload(query.encode());
  for (const ProcessId& p : peers()) {
    transport_->send_payload(self_, p, payload);
  }
}

void PersistentRegisterServer::finish_catch_up() {
  // Nothing is announced: clients address all n servers on every request,
  // so the next one to reach this server is simply answered.
  serving_.store(true, std::memory_order_release);
  LOG_INFO << to_string(self_) << ": catch-up complete (adopted " << adopted_
           << " pairs, refused " << refused_.load(std::memory_order_relaxed)
           << " requests), serving";
}

}  // namespace bftreg::storage
