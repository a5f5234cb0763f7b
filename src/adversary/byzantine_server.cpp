#include "adversary/byzantine_server.h"

#include "registers/server.h"

namespace bftreg::adversary {

using registers::MsgType;
using registers::RegisterMessage;
using registers::TaggedValue;

namespace {

/// A strategy that behaves exactly like an honest RegisterServer; used as
/// the "before" phase of TurncoatStrategy.
class HonestAdapter final : public Strategy {
 public:
  void handle(const net::Envelope& env, ServerContext& ctx) override {
    if (!server_) {
      server_ = std::make_unique<registers::RegisterServer>(
          ctx.self, ctx.config, ctx.transport, ctx.initial);
    }
    server_->on_message(env);
  }

 private:
  std::unique_ptr<registers::RegisterServer> server_;
};

Bytes random_bytes(Rng& rng, size_t len) {
  Bytes b(len);
  for (auto& v : b) v = static_cast<uint8_t>(rng.uniform(256));
  return b;
}

}  // namespace

// ----------------------------------------------------------------- Stale

void StaleStrategy::handle(const net::Envelope& env, ServerContext& ctx) {
  auto msg = RegisterMessage::parse(env.payload);
  if (!msg) return;
  RegisterMessage resp = reply_to(*msg);
  switch (msg->type) {
    case MsgType::kQueryTag:
      resp.type = MsgType::kTagResp;
      resp.tag = Tag::initial();
      break;
    case MsgType::kPutData:
      resp.type = MsgType::kAck;
      resp.tag = msg->tag;  // ack but never store
      break;
    case MsgType::kQueryData:
      resp.type = MsgType::kDataResp;
      resp.tag = Tag::initial();
      resp.value = ctx.initial;
      break;
    case MsgType::kQueryHistory:
      resp.type = MsgType::kHistoryResp;
      resp.history = {TaggedValue{Tag::initial(), ctx.initial}};
      break;
    case MsgType::kQueryTagHistory:
      resp.type = MsgType::kTagHistoryResp;
      resp.tags = {Tag::initial()};
      break;
    case MsgType::kQueryDataAt:
      if (msg->tag == Tag::initial()) {
        resp.type = MsgType::kDataAtResp;
        resp.tag = msg->tag;
        resp.value = ctx.initial;
      } else {
        resp.type = MsgType::kDataAtMissing;
        resp.tag = msg->tag;
      }
      break;
    default:
      return;
  }
  ctx.send(env.from, resp);
}

// ------------------------------------------------------------- Fabricate

void FabricateStrategy::handle(const net::Envelope& env, ServerContext& ctx) {
  auto msg = RegisterMessage::parse(env.payload);
  if (!msg) return;
  const Tag wild{1'000'000'000 + ctx.rng.uniform(1'000'000),
                 ProcessId::writer(static_cast<uint32_t>(ctx.rng.uniform(4)))};
  RegisterMessage resp = reply_to(*msg);
  switch (msg->type) {
    case MsgType::kQueryTag:
      resp.type = MsgType::kTagResp;
      resp.tag = wild;
      break;
    case MsgType::kPutData:
      resp.type = MsgType::kAck;
      resp.tag = msg->tag;
      break;
    case MsgType::kQueryData:
      resp.type = MsgType::kDataResp;
      resp.tag = wild;
      resp.value = random_bytes(ctx.rng, 16 + ctx.rng.uniform(48));
      break;
    case MsgType::kQueryHistory:
      resp.type = MsgType::kHistoryResp;
      resp.history = {TaggedValue{wild, random_bytes(ctx.rng, 32)},
                      TaggedValue{Tag{wild.num + 1, wild.writer},
                                  random_bytes(ctx.rng, 32)}};
      break;
    case MsgType::kQueryTagHistory:
      resp.type = MsgType::kTagHistoryResp;
      resp.tags = {wild, Tag{wild.num + 7, wild.writer}};
      break;
    case MsgType::kQueryDataAt:
      // Claim to hold the requested tag, with a fabricated value.
      resp.type = MsgType::kDataAtResp;
      resp.tag = msg->tag;
      resp.value = random_bytes(ctx.rng, 24);
      break;
    default:
      return;
  }
  ctx.send(env.from, resp);
}

// --------------------------------------------------------------- Collude

Tag ColludeStrategy::team_tag(uint64_t op_id) const {
  return Tag{1'000'000 + ((team_seed_ ^ op_id) % 997),
             ProcessId::writer(static_cast<uint32_t>(team_seed_ % 3))};
}

Bytes ColludeStrategy::team_value(uint64_t op_id) const {
  // Deterministic in (team_seed_, op_id): every colluder fabricates the
  // *same* pair, maximizing the witness count of the lie.
  uint64_t h = fnv1a64(&op_id, sizeof(op_id), team_seed_);
  Bytes b(16);
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<uint8_t>(h >> ((i % 8) * 8));
    if (i % 8 == 7) h = fnv1a64(&h, sizeof(h));
  }
  return b;
}

void ColludeStrategy::handle(const net::Envelope& env, ServerContext& ctx) {
  auto msg = RegisterMessage::parse(env.payload);
  if (!msg) return;
  const Tag t = team_tag(msg->op_id);
  RegisterMessage resp = reply_to(*msg);
  switch (msg->type) {
    case MsgType::kQueryTag:
      resp.type = MsgType::kTagResp;
      resp.tag = t;
      break;
    case MsgType::kPutData:
      resp.type = MsgType::kAck;
      resp.tag = msg->tag;
      break;
    case MsgType::kQueryData:
      resp.type = MsgType::kDataResp;
      resp.tag = t;
      resp.value = team_value(msg->op_id);
      break;
    case MsgType::kQueryHistory:
      resp.type = MsgType::kHistoryResp;
      resp.history = {TaggedValue{t, team_value(msg->op_id)}};
      break;
    case MsgType::kQueryTagHistory:
      resp.type = MsgType::kTagHistoryResp;
      resp.tags = {t};
      break;
    case MsgType::kQueryDataAt:
      resp.type = MsgType::kDataAtResp;
      resp.tag = msg->tag;
      resp.value = team_value(msg->op_id);
      break;
    default:
      return;
  }
  ctx.send(env.from, resp);
}

// ----------------------------------------------------------- DoubleReply

void DoubleReplyStrategy::handle(const net::Envelope& env, ServerContext& ctx) {
  auto msg = RegisterMessage::parse(env.payload);
  if (!msg) return;
  RegisterMessage first = reply_to(*msg);
  RegisterMessage second = first;
  switch (msg->type) {
    case MsgType::kQueryTag:
      first.type = second.type = MsgType::kTagResp;
      first.tag = Tag{7, ProcessId::writer(0)};
      second.tag = Tag{9, ProcessId::writer(1)};
      break;
    case MsgType::kPutData:
      first.type = second.type = MsgType::kAck;
      first.tag = second.tag = msg->tag;
      break;
    case MsgType::kQueryData:
      first.type = second.type = MsgType::kDataResp;
      first.tag = Tag{5, ProcessId::writer(0)};
      first.value = random_bytes(ctx.rng, 8);
      second.tag = Tag{6, ProcessId::writer(1)};
      second.value = random_bytes(ctx.rng, 8);
      break;
    default:
      return;
  }
  ctx.send(env.from, first);
  ctx.send(env.from, second);
}

// ------------------------------------------------------------- Malformed

void MalformedStrategy::handle(const net::Envelope& env, ServerContext& ctx) {
  // Random junk of random length, including empty payloads.
  ctx.send_raw(env.from, random_bytes(ctx.rng, ctx.rng.uniform(64)));
}

// -------------------------------------------------------------- Turncoat

TurncoatStrategy::TurncoatStrategy(uint64_t honest_ops)
    : remaining_(honest_ops), honest_(std::make_unique<HonestAdapter>()) {}

void TurncoatStrategy::handle(const net::Envelope& env, ServerContext& ctx) {
  if (remaining_ > 0) {
    --remaining_;
    honest_->handle(env, ctx);
    return;
  }
  stale_.handle(env, ctx);
}

// --------------------------------------------------------------- factory

const char* to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kSilent: return "silent";
    case StrategyKind::kStale: return "stale";
    case StrategyKind::kFabricate: return "fabricate";
    case StrategyKind::kCollude: return "collude";
    case StrategyKind::kDoubleReply: return "double-reply";
    case StrategyKind::kMalformed: return "malformed";
    case StrategyKind::kTurncoat: return "turncoat";
  }
  return "?";
}

std::unique_ptr<Strategy> make_strategy(StrategyKind kind, uint64_t seed) {
  switch (kind) {
    case StrategyKind::kSilent:
      return std::make_unique<SilentStrategy>();
    case StrategyKind::kStale:
      return std::make_unique<StaleStrategy>();
    case StrategyKind::kFabricate:
      return std::make_unique<FabricateStrategy>();
    case StrategyKind::kCollude:
      return std::make_unique<ColludeStrategy>(seed);
    case StrategyKind::kDoubleReply:
      return std::make_unique<DoubleReplyStrategy>();
    case StrategyKind::kMalformed:
      return std::make_unique<MalformedStrategy>();
    case StrategyKind::kTurncoat:
      return std::make_unique<TurncoatStrategy>(20);
  }
  return std::make_unique<SilentStrategy>();
}

}  // namespace bftreg::adversary
