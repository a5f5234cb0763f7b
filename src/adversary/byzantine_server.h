// Byzantine server framework.
//
// The model lets up to f servers "behave arbitrarily and deviate from the
// algorithm in any way" (Section II-A). Arbitrary behaviour cannot be
// enumerated, so the framework is a pluggable strategy interface plus the
// concrete behaviours the paper's proofs and our property tests rely on:
// staying silent, replying with stale state, fabricating tags/values,
// colluding on a common fabrication (the strongest witness-forging attack:
// f identical lies, defeated only by the f+1 witness rule of Lemma 5),
// double replies, malformed bytes, and fully scripted behaviours for the
// impossibility-proof schedules (Thms. 3, 5, 6).
//
// Byzantine servers still send through the authenticated transport under
// their own identity -- the signature assumption prevents sender spoofing,
// and sim_test shows forged envelopes are dropped.
#pragma once

#include <functional>
#include <memory>

#include "common/rng.h"
#include "net/transport.h"
#include "registers/config.h"
#include "registers/messages.h"

namespace bftreg::adversary {

/// Everything a strategy may use to misbehave.
struct ServerContext {
  ProcessId self;
  registers::SystemConfig config;
  net::Transport* transport{nullptr};
  /// What an honest server at this position would have stored for t0
  /// (v0 for BSR; the coded element Phi_i(v0) for BCSR).
  Bytes initial;
  Rng rng{0};

  void send(const ProcessId& to, const registers::RegisterMessage& msg) const {
    transport->send(self, to, msg.encode());
  }
  void send_raw(const ProcessId& to, Bytes payload) const {
    transport->send(self, to, std::move(payload));
  }
};

/// The start of a reply to `req`: its op id and object. Clients drop a
/// reply that names another object, so a lie must name the right one.
inline registers::RegisterMessage reply_to(const registers::RegisterMessage& req) {
  registers::RegisterMessage resp;
  resp.op_id = req.op_id;
  resp.object = req.object;
  return resp;
}

class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual void handle(const net::Envelope& env, ServerContext& ctx) = 0;
};

/// A server process driven by a strategy.
class ByzantineServer final : public net::IProcess {
 public:
  ByzantineServer(ServerContext ctx, std::unique_ptr<Strategy> strategy)
      : ctx_(std::move(ctx)), strategy_(std::move(strategy)) {}

  void on_message(const net::Envelope& env) override {
    strategy_->handle(env, ctx_);
  }

  ServerContext& context() { return ctx_; }

 private:
  ServerContext ctx_;
  std::unique_ptr<Strategy> strategy_;
};

// --------------------------------------------------------------- strategies

/// Ignores everything: indistinguishable from a crashed server.
class SilentStrategy final : public Strategy {
 public:
  void handle(const net::Envelope&, ServerContext&) override {}
};

/// Answers every request as if no write ever happened: t0 / v0 forever.
/// ACKs puts without storing them. This is the "slow/stale" server of
/// Section IV-A's erroneous-element discussion, pushed to the extreme.
class StaleStrategy final : public Strategy {
 public:
  void handle(const net::Envelope& env, ServerContext& ctx) override;
};

/// Fabricates: absurdly high tags and random values, hoping a reader
/// adopts them. Defeated by witness counting (a fabrication has at most
/// f witnesses) and by rank-(f+1) tag selection at writers.
class FabricateStrategy final : public Strategy {
 public:
  void handle(const net::Envelope& env, ServerContext& ctx) override;
};

/// Collusion: all f Byzantine servers constructed with the same `team_seed`
/// produce the *identical* fabricated pair for a given op, mounting the
/// strongest possible witness-forging attack: f matching lies. Lemma 5's
/// f+1 threshold is exactly what keeps this out.
class ColludeStrategy final : public Strategy {
 public:
  explicit ColludeStrategy(uint64_t team_seed) : team_seed_(team_seed) {}
  void handle(const net::Envelope& env, ServerContext& ctx) override;

 private:
  Tag team_tag(uint64_t op_id) const;
  Bytes team_value(uint64_t op_id) const;
  uint64_t team_seed_;
};

/// Replies twice with conflicting answers to every query; exercises the
/// per-server dedup in every client.
class DoubleReplyStrategy final : public Strategy {
 public:
  void handle(const net::Envelope& env, ServerContext& ctx) override;
};

/// Replies with random unparsable bytes; exercises defensive parsing.
class MalformedStrategy final : public Strategy {
 public:
  void handle(const net::Envelope& env, ServerContext& ctx) override;
};

/// Behaves honestly for `honest_ops` requests, then turns stale: models a
/// server compromised mid-execution.
class TurncoatStrategy final : public Strategy {
 public:
  explicit TurncoatStrategy(uint64_t honest_ops);
  void handle(const net::Envelope& env, ServerContext& ctx) override;

 private:
  uint64_t remaining_;
  StaleStrategy stale_;
  std::unique_ptr<Strategy> honest_;  // lazily built HonestAdapter
};

/// Fully scripted behaviour for bespoke scenarios (lower-bound proofs).
class ScriptedStrategy final : public Strategy {
 public:
  using Fn = std::function<void(const net::Envelope&, ServerContext&)>;
  explicit ScriptedStrategy(Fn fn) : fn_(std::move(fn)) {}
  void handle(const net::Envelope& env, ServerContext& ctx) override {
    fn_(env, ctx);
  }

 private:
  Fn fn_;
};

/// Names for the parameterized test/bench sweeps.
enum class StrategyKind {
  kSilent,
  kStale,
  kFabricate,
  kCollude,
  kDoubleReply,
  kMalformed,
  kTurncoat,
};

const char* to_string(StrategyKind kind);

std::unique_ptr<Strategy> make_strategy(StrategyKind kind, uint64_t seed);

/// Every kind, for sweeping.
inline constexpr StrategyKind kAllStrategyKinds[] = {
    StrategyKind::kSilent,     StrategyKind::kStale,
    StrategyKind::kFabricate,  StrategyKind::kCollude,
    StrategyKind::kDoubleReply, StrategyKind::kMalformed,
    StrategyKind::kTurncoat,
};

}  // namespace bftreg::adversary
