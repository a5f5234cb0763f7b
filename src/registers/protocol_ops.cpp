#include "registers/protocol_ops.h"

#include <algorithm>

namespace bftreg::registers {

// --- BsrReadOp --------------------------------------------------------------

void BsrReadOp::send_request() {
  RegisterMessage query;
  query.type = MsgType::kQueryData;
  query.op_id = op_id();
  query.object = object();
  send_to_all_servers(query);
}

void BsrReadOp::on_response(const ProcessId& from, RegisterMessage msg) {
  if (msg.type != MsgType::kDataResp || msg.object != object()) return;
  if (!responded_.add(from)) return;
  responses_.emplace(from, TaggedValue{msg.tag, std::move(msg.value)});
  if (responded_.reached()) finish();
}

void BsrReadOp::finish() {
  // P <- pairs with at least f+1 witnesses (Fig. 2 line 5).
  std::map<TaggedValue, size_t> witnesses;
  for (const auto& [server, pair] : responses_) ++witnesses[pair];

  const TaggedValue* best = nullptr;
  for (const auto& [pair, count] : witnesses) {
    if (count >= config().witness_threshold()) {
      // std::map iterates in ascending order, so the last qualifying pair
      // is the highest (Fig. 2 line 6).
      best = &pair;
    }
  }

  bool fresh = false;
  if (best != nullptr && best->tag > state_->local.tag) {  // Fig. 2 line 7
    state_->local = *best;
    fresh = true;
  }
  complete(fresh);
}

// On timeout the witness selection still runs over the partial response
// set: f+1 identical reports pin an honest server regardless of how many
// other responses arrived, so any pair it promotes is a real write. Only
// the freshness guarantee of a full quorum is lost, which timed_out flags.
void BsrReadOp::on_timeout() { finish(); }

void BsrReadOp::complete(bool fresh) {
  auto self = detach_self();
  ReadResult result;
  result.value = state_->local.value;
  result.tag = state_->local.tag;
  result.fresh = fresh;
  fill_result(result, 1);
  if (cb_) cb_(result);
}

// --- BcsrReadOp -------------------------------------------------------------

void BcsrReadOp::send_request() {
  RegisterMessage query;
  query.type = MsgType::kQueryData;
  query.op_id = op_id();
  query.object = object();
  send_to_all_servers(query);
}

void BcsrReadOp::on_response(const ProcessId& from, RegisterMessage msg) {
  if (msg.type != MsgType::kDataResp || msg.object != object()) return;
  if (from.index >= config().n) return;
  if (!responded_.add(from)) return;
  elements_[from.index] = std::move(msg.value);
  if (!responded_.reached()) return;

  // Fig. 5 line 4: return Phi^{-1}(received elements) if possible,
  // otherwise fall back (v0 / last decodable value).
  bool fresh = false;
  if (auto decoded = code_->decode(elements_)) {
    state_->last_decoded = *decoded;
    fresh = true;
  } else {
    ++state_->decode_failures;
  }
  complete(fresh);
}

void BcsrReadOp::on_timeout() { complete(false); }

void BcsrReadOp::complete(bool fresh) {
  auto self = detach_self();
  ReadResult result;
  result.value = state_->last_decoded;
  result.fresh = fresh;
  fill_result(result, 1);
  if (cb_) cb_(result);
}

// --- HistoryReadOp ----------------------------------------------------------

void HistoryReadOp::send_request() {
  RegisterMessage query;
  query.type = MsgType::kQueryHistory;
  query.op_id = op_id();
  query.object = object();
  send_to_all_servers(query);
}

void HistoryReadOp::on_response(const ProcessId& from, RegisterMessage msg) {
  if (msg.type != MsgType::kHistoryResp || msg.object != object()) return;
  if (!responded_.add(from)) return;

  // A server witnesses each *distinct* pair in its history once; a
  // Byzantine history repeating one pair a thousand times counts once.
  std::set<TaggedValue> distinct(msg.history.begin(), msg.history.end());
  for (const auto& pair : distinct) ++witnesses_[pair];

  if (responded_.reached()) finish();
}

void HistoryReadOp::finish() {
  const TaggedValue* best = nullptr;
  for (const auto& [pair, count] : witnesses_) {
    if (count >= config().witness_threshold()) best = &pair;  // ascending map
  }
  bool fresh = false;
  if (best != nullptr && best->tag > state_->local.tag) {
    state_->local = *best;
    fresh = true;
  }
  complete(fresh);
}

// Like BsrReadOp: the f+1-witness rule is sound over a partial response
// set, so the timeout path still promotes whatever was pinned.
void HistoryReadOp::on_timeout() { finish(); }

void HistoryReadOp::complete(bool fresh) {
  auto self = detach_self();
  ReadResult result;
  result.value = state_->local.value;
  result.tag = state_->local.tag;
  result.fresh = fresh;
  fill_result(result, 1);
  if (cb_) cb_(result);
}

// --- TwoRoundReadOp ---------------------------------------------------------

void TwoRoundReadOp::send_request() {
  RegisterMessage query;
  switch (phase_) {
    case Phase::kGetTag:
      query.type = MsgType::kQueryTagHistory;
      break;
    case Phase::kGetData:
      query.type = MsgType::kQueryDataAt;
      query.tag = target_;
      break;
  }
  query.op_id = op_id();
  query.object = object();
  send_to_all_servers(query);
}

void TwoRoundReadOp::on_response(const ProcessId& from, RegisterMessage msg) {
  if (msg.object != object()) return;
  switch (msg.type) {
    case MsgType::kTagHistoryResp:
      on_tag_history(from, msg);
      break;
    case MsgType::kDataAtResp:
      on_data_at(from, msg);
      break;
    case MsgType::kDataAtMissing:
      // Provisional: the server will answer again when it learns the tag.
      break;
    default:
      break;
  }
}

void TwoRoundReadOp::on_tag_history(const ProcessId& from,
                                    const RegisterMessage& msg) {
  if (phase_ != Phase::kGetTag) return;
  if (!responded_.add(from)) return;
  for (const Tag& t : msg.tags) tag_votes_[t].insert(from);
  if (responded_.reached()) begin_get_data();
}

void TwoRoundReadOp::begin_get_data() {
  // Largest tag vouched by >= f+1 servers. t0 always qualifies (every
  // honest server's history contains it), so a target always exists.
  target_ = Tag::initial();
  for (const auto& [tag, voters] : tag_votes_) {
    if (voters.size() >= config().witness_threshold()) target_ = tag;  // ascending
  }
  phase_ = Phase::kGetData;
  responded_.reset();
  send_request();
}

void TwoRoundReadOp::on_data_at(const ProcessId& from, const RegisterMessage& msg) {
  if (phase_ != Phase::kGetData) return;
  if (msg.tag != target_) return;  // Byzantine answer for a different tag
  auto& voters = value_votes_[msg.value];
  voters.insert(from);
  if (voters.size() < config().witness_threshold()) return;

  bool fresh = false;
  if (target_ > state_->local.tag) {
    state_->local = TaggedValue{target_, msg.value};
    fresh = true;
  }
  complete(fresh);
}

void TwoRoundReadOp::send_read_done() {
  // Cancel the deferred QUERY-DATA-AT replies left behind at the servers.
  RegisterMessage done;
  done.type = MsgType::kReadDone;
  done.op_id = op_id();
  done.object = object();
  send_to_all_servers(done);
}

void TwoRoundReadOp::on_timeout() { complete(false); }

void TwoRoundReadOp::complete(bool fresh) {
  send_read_done();
  auto self = detach_self();
  ReadResult result;
  result.value = state_->local.value;
  result.tag = state_->local.tag;
  result.fresh = fresh;
  fill_result(result, 2);
  if (cb_) cb_(result);
}

// --- WriteBackReadOp --------------------------------------------------------

void WriteBackReadOp::send_request() {
  switch (phase_) {
    case Phase::kGetData: {
      RegisterMessage query;
      query.type = MsgType::kQueryData;
      query.op_id = op_id();
      query.object = object();
      send_to_all_servers(query);
      break;
    }
    case Phase::kWriteBack: {
      RegisterMessage put;
      put.type = MsgType::kPutData;
      put.op_id = op_id();
      put.object = object();
      put.tag = state_->local.tag;
      put.value = state_->local.value;
      send_to_all_servers(put);
      break;
    }
  }
}

void WriteBackReadOp::on_response(const ProcessId& from, RegisterMessage msg) {
  if (msg.object != object()) return;
  switch (msg.type) {
    case MsgType::kDataResp: {
      if (phase_ != Phase::kGetData) return;
      if (!responded_.add(from)) return;
      responses_.emplace(from, TaggedValue{msg.tag, std::move(msg.value)});
      if (responded_.reached()) begin_write_back();
      break;
    }
    case MsgType::kAck: {
      if (phase_ != Phase::kWriteBack) return;
      if (msg.tag != state_->local.tag) return;
      if (!responded_.add(from)) return;
      if (responded_.reached()) complete(fresh_);
      break;
    }
    default:
      break;
  }
}

void WriteBackReadOp::begin_write_back() {
  // Fig. 2's selection: the highest pair with f+1 witnesses, if it beats
  // the local pair.
  std::map<TaggedValue, size_t> witnesses;
  for (const auto& [server, pair] : responses_) ++witnesses[pair];
  const TaggedValue* best = nullptr;
  for (const auto& [pair, count] : witnesses) {
    if (count >= config().witness_threshold()) best = &pair;  // ascending map
  }
  if (best != nullptr && best->tag > state_->local.tag) {
    state_->local = *best;
    fresh_ = true;
  }

  // Phase two: write the chosen pair back before returning, pinning every
  // later read's quorum to at least this pair.
  phase_ = Phase::kWriteBack;
  responded_.reset();
  send_request();
}

// If the get-data phase already chose a witnessed pair, report it (with
// its freshness) even though the write-back did not reach a quorum: the
// value is real, only the atomicity pinning is incomplete -- timed_out
// tells the caller the stronger guarantee was not earned.
void WriteBackReadOp::on_timeout() { complete(fresh_); }

void WriteBackReadOp::complete(bool fresh) {
  auto self = detach_self();
  ReadResult result;
  result.value = state_->local.value;
  result.tag = state_->local.tag;
  result.fresh = fresh;
  fill_result(result, 2);
  if (cb_) cb_(result);
}

// --- WriteOp ----------------------------------------------------------------

void WriteOp::send_request() {
  switch (phase_) {
    case Phase::kGetTag: {
      RegisterMessage query;
      query.type = MsgType::kQueryTag;
      query.op_id = op_id();
      query.object = object();
      send_to_all_servers(query);
      break;
    }
    case Phase::kPutData:
      send_put_data();
      break;
  }
}

void WriteOp::on_response(const ProcessId& from, RegisterMessage msg) {
  if (msg.object != object()) return;
  switch (msg.type) {
    case MsgType::kTagResp:
      on_tag_resp(from, msg);
      break;
    case MsgType::kAck:
      on_ack(from, msg);
      break;
    default:
      break;
  }
}

void WriteOp::on_tag_resp(const ProcessId& from, const RegisterMessage& msg) {
  if (phase_ != Phase::kGetTag) return;
  if (!responded_.add(from)) return;  // Byzantine double-reply
  tags_.push_back(msg.tag);
  if (!responded_.reached()) return;

  // Fig. 1 line 4: the (f+1)-th highest among the n-f collected tags. The
  // per-object floor keeps a client's pipelined writes on distinct tags
  // even when their get-tag phases ran concurrently.
  std::sort(tags_.begin(), tags_.end(), std::greater<>());
  const Tag base = tags_[std::min(config().tag_rank(), tags_.size()) - 1];
  const uint64_t num = std::max(base.num, state_->last_issued_num) + 1;
  state_->last_issued_num = num;
  write_tag_ = Tag{num, self()};

  phase_ = Phase::kPutData;
  responded_.reset();
  send_put_data();
}

void WriteOp::send_put_data() {
  RegisterMessage put;
  put.type = MsgType::kPutData;
  put.op_id = op_id();
  put.object = object();
  put.tag = write_tag_;
  if (code_ == nullptr) {
    put.value = value_;
    send_to_all_servers(put);
    return;
  }
  // Fig. 4 line 7: (PUT-DATA, (t_w, c_i)) to s_i, where c_i = Phi_i(v).
  std::vector<Bytes> elements = code_->encode(value_);
  for (uint32_t i = 0; i < config().n; ++i) {
    // Each element is consumed by exactly one message; move it into the
    // frame instead of re-copying a value_size/k buffer per server.
    put.value = std::move(elements[i]);
    send_to_server(i, put);
  }
}

void WriteOp::on_ack(const ProcessId& from, const RegisterMessage& msg) {
  if (phase_ != Phase::kPutData) return;
  if (msg.tag != write_tag_) return;  // ack for something we did not send
  if (!responded_.add(from)) return;
  if (responded_.reached()) complete();
}

void WriteOp::on_timeout() { complete(); }

void WriteOp::complete() {
  auto self = detach_self();
  WriteResult result;
  result.tag = write_tag_;
  fill_result(result, 2);
  if (cb_) cb_(result);
}

// --- BatchReadOp ------------------------------------------------------------

void BatchReadOp::send_request() {
  RegisterMessage query;
  query.type = MsgType::kQueryDataBatch;
  query.op_id = op_id();
  query.objects = objects_;
  send_to_all_servers(query);
}

void BatchReadOp::on_response(const ProcessId& from, RegisterMessage msg) {
  if (msg.type != MsgType::kDataBatchResp) return;
  // A response that does not cover the full request (malformed or capped)
  // cannot vouch per object; drop it.
  if (msg.objects != objects_ || msg.history.size() != objects_.size()) return;
  if (!responded_.add(from)) return;
  responses_.emplace(from, std::move(msg.history));
  if (responded_.reached()) complete();
}

void BatchReadOp::on_timeout() { complete(); }

void BatchReadOp::complete() {
  auto self = detach_self();
  BatchReadResult batch;
  batch.results.reserve(objects_.size());

  for (size_t i = 0; i < objects_.size(); ++i) {
    const uint32_t object = objects_[i];
    // Fig. 2's selection, object-wise.
    std::map<TaggedValue, size_t> witnesses;
    for (const auto& [server, pairs] : responses_) ++witnesses[pairs[i]];
    const TaggedValue* best = nullptr;
    for (const auto& [pair, count] : witnesses) {
      if (count >= config().witness_threshold()) best = &pair;  // ascending
    }

    auto [it, inserted] = states_->try_emplace(object, LocalState::initial(config()));
    LocalState& state = it->second;
    ReadResult r;
    if (best != nullptr && best->tag > state.local.tag) {
      state.local = *best;
      r.fresh = true;
    }
    r.value = state.local.value;
    r.tag = state.local.tag;
    fill_result(r, 1);
    batch.results.push_back(std::move(r));
  }

  fill_result(batch, 1);
  if (cb_) cb_(batch);
}

// --- RbReadOp ---------------------------------------------------------------

void RbReadOp::send_request() {
  RegisterMessage query;
  query.type = MsgType::kQueryData;
  query.op_id = op_id();
  query.object = object();
  send_to_all_servers(query);
}

void RbReadOp::on_response(const ProcessId& from, RegisterMessage msg) {
  if (msg.object != object()) return;
  switch (msg.type) {
    case MsgType::kDataResp:
      responded_.add(from);
      break;
    case MsgType::kDataUpdate:
      saw_update_ = true;
      break;
    default:
      return;
  }
  note_pair(from, TaggedValue{msg.tag, std::move(msg.value)});
  try_complete();
}

void RbReadOp::note_pair(const ProcessId& from, TaggedValue pair) {
  auto [it, inserted] = max_tag_.emplace(from, pair.tag);
  if (!inserted) it->second = std::max(it->second, pair.tag);
  vouchers_[std::move(pair)].insert(from);
}

void RbReadOp::try_complete() {
  if (!responded_.reached()) return;

  // H = (f+1)-th largest per-server newest tag. Robust both ways: at most
  // f Byzantine tags can sit above it (so H is at most the largest honest
  // tag and waiting for it terminates), and at least f+1 servers claim a
  // tag >= H (so one honest server really holds something >= H).
  std::vector<Tag> tags;
  tags.reserve(max_tag_.size());
  for (const auto& [server, tag] : max_tag_) tags.push_back(tag);
  std::sort(tags.begin(), tags.end(), std::greater<>());
  const Tag h = tags[std::min(tags.size() - 1, config().f)];

  const TaggedValue* best = nullptr;
  for (const auto& [pair, voters] : vouchers_) {
    if (voters.size() >= config().witness_threshold() && pair.tag >= h) {
      best = &pair;  // ascending map: last qualifying pair has highest tag
    }
  }
  if (best == nullptr) return;  // keep waiting for DATA-UPDATE pushes

  bool fresh = false;
  if (best->tag > state_->local.tag) {
    state_->local = *best;
    fresh = true;
  }
  complete(fresh);
}

// No pair has passed the freshness bar H yet, so the local pair is the
// only answer known to be a real write; timed_out flags the stale result.
void RbReadOp::on_timeout() { complete(false); }

void RbReadOp::complete(bool fresh) {
  // End the subscriptions: without READ-DONE every server would keep
  // pushing this op's DATA-UPDATEs.
  RegisterMessage done;
  done.type = MsgType::kReadDone;
  done.op_id = op_id();
  done.object = object();
  send_to_all_servers(done);

  auto self = detach_self();
  ReadResult result;
  result.value = state_->local.value;
  result.tag = state_->local.tag;
  result.fresh = fresh;
  fill_result(result, saw_update_ ? 2 : 1);
  if (cb_) cb_(result);
}

}  // namespace bftreg::registers
