#include "harness/scenarios.h"

#include <cassert>
#include <string>

#include "storage/persistent_server.h"

namespace bftreg::harness {

using registers::MsgType;
using registers::RegisterMessage;

void LaggingLiar::handle(const net::Envelope& env, adversary::ServerContext& ctx) {
  auto msg = RegisterMessage::parse(env.payload);
  if (!msg) return;
  RegisterMessage resp = adversary::reply_to(*msg);
  switch (msg->type) {
    case MsgType::kQueryTag:
      resp.type = MsgType::kTagResp;
      resp.tag = store_.empty() ? Tag::initial() : store_.rbegin()->first;
      break;
    case MsgType::kPutData:
      store_[msg->tag] = msg->value;
      resp.type = MsgType::kAck;
      resp.tag = msg->tag;
      break;
    case MsgType::kQueryData: {
      resp.type = MsgType::kDataResp;
      auto it = store_.rbegin();
      if (it != store_.rend() && std::next(it) != store_.rend()) ++it;
      if (it == store_.rend()) {
        resp.tag = Tag::initial();
        resp.value = ctx.initial;
      } else {
        resp.tag = it->first;
        resp.value = it->second;
      }
      break;
    }
    default:
      return;
  }
  ctx.send(env.from, resp);
}

Bytes run_theorem5_schedule(SimCluster& cluster) {
  cluster.start();
  auto& delay = cluster.sim().delay_model();
  const auto n = static_cast<uint32_t>(cluster.options().config.n);
  const auto f = static_cast<uint32_t>(cluster.options().config.f);

  // Generalization of the proof's n = 4, f = 1 schedule to arbitrary f
  // (callers place LaggingLiar adversaries at servers 0..f-1):
  //   W1(v1) is withheld from the last f servers;
  //   W2(v2) is withheld from the f honest servers right after the liars;
  //   the read gets no replies from the last f servers.
  // At n = 4f the read's quorum sees v1 at 2f servers (f liars + f honest
  // that missed W2) and v2 at only f < f+1 -- stale v1 wins. At n = 4f+1
  // one more fresh server pushes v2 to f+1 witnesses and its higher tag
  // prevails.
  auto withhold_put = [](uint32_t writer, uint32_t from, uint32_t to) {
    return [writer, from, to](const net::Envelope& env) -> std::optional<TimeNs> {
      auto msg = RegisterMessage::parse(env.payload);
      if (msg && msg->type == MsgType::kPutData &&
          env.from == ProcessId::writer(writer) && env.to.is_server() &&
          env.to.index >= from && env.to.index < to) {
        return TimeNs{1'000'000'000};
      }
      return std::nullopt;
    };
  };

  // "The last f servers" of the proof schedule: index arithmetic, not a
  // quorum size. bftreg-lint: allow(quorum-arithmetic)
  delay.set_hook(withhold_put(0, n - f, n));
  cluster.write(0, Bytes{'v', '1'});
  cluster.sim().run_until_time(cluster.sim().now() + 100'000);

  delay.set_hook(withhold_put(1, f, 2 * f));
  cluster.write(1, Bytes{'v', '2'});
  cluster.sim().run_until_time(cluster.sim().now() + 100'000);

  delay.set_hook([n, f](const net::Envelope& env) -> std::optional<TimeNs> {
    // Schedule index range, not a quorum size: the read hears nothing
    // from the last f servers. bftreg-lint: allow(quorum-arithmetic)
    if (env.from.is_server() && env.from.index >= n - f &&
        env.to.role == Role::kReader) {
      return TimeNs{1'000'000'000};
    }
    return std::nullopt;
  });
  return cluster.read(0).value;
}

registers::ReadResult run_theorem3_schedule(SimCluster& cluster) {
  cluster.write(0, Bytes{'v', '1'});
  cluster.sim().run_until_idle();

  cluster.sim().delay_model().set_hook(
      [](const net::Envelope& env) -> std::optional<TimeNs> {
        if (env.from.role != Role::kWriter || env.from.index == 0) {
          return std::nullopt;
        }
        auto msg = RegisterMessage::parse(env.payload);
        if (!msg || msg->type != MsgType::kPutData) return std::nullopt;
        if (env.to == ProcessId::server(env.from.index)) return TimeNs{10};
        return TimeNs{1'000'000'000};  // "the other messages ... are slow"
      });

  for (size_t w = 1; w <= 4; ++w) {
    cluster.start_write(w, Bytes{'v', static_cast<uint8_t>('1' + w)});
  }
  cluster.sim().run_until_time(cluster.sim().now() + 200'000);

  const uint64_t rid = cluster.start_read(0);
  cluster.await(rid);
  return cluster.read_result(rid);
}

// --- churn schedules ---------------------------------------------------------

uint64_t schedule_seed(const std::string& name, uint64_t base_seed) {
  return fnv1a64(name.data(), name.size()) ^ base_seed;
}

ChurnOutcome run_churn_schedule(SimCluster& cluster,
                                const adversary::ChurnSchedule& schedule) {
  cluster.start();
  ChurnOutcome out;
  out.seed = schedule_seed(schedule.name, cluster.options().seed);
  // Reseed the scenario RNG (delay draws AND the write values below): from
  // here on the execution is a pure function of (schedule name, base seed),
  // whatever ran on this simulator before.
  cluster.sim().rng().reseed(out.seed);
  Rng values(out.seed * 0x9E3779B97F4A7C15ULL + 1);

  const TimeNs t0 = cluster.sim().now();
  std::vector<size_t> restarted;
  for (const auto& step : schedule.steps) {
    cluster.sim().run_until_time(t0 + step.at);
    switch (step.action) {
      case adversary::ChurnAction::kCrash:
        cluster.crash_server(step.index);
        break;
      case adversary::ChurnAction::kRestart:
        cluster.restart_server(step.index);
        restarted.push_back(step.index);
        break;
      case adversary::ChurnAction::kStartWrite: {
        Bytes value(8);
        const uint64_t v = values.next_u64();
        for (size_t b = 0; b < value.size(); ++b) {
          value[b] = static_cast<uint8_t>(v >> (8 * b));
        }
        out.write_ids.push_back(cluster.start_write(step.index, std::move(value)));
        break;
      }
      case adversary::ChurnAction::kStartRead:
        out.read_ids.push_back(cluster.start_read(step.index));
        break;
    }
  }
  for (const uint64_t id : out.write_ids) cluster.await(id);
  for (const uint64_t id : out.read_ids) cluster.await(id);

  // Drive the catch-up state machines to completion and collect the proof
  // counters: requests a recovering server received were dropped, never
  // answered.
  for (const size_t index : restarted) {
    auto* srv = cluster.persistent_server(index);
    assert(srv != nullptr);
    const bool ok = cluster.sim().run_until([srv] { return srv->is_serving(); });
    out.recovered_serving = out.recovered_serving && ok;
    out.refused_during_catch_up += srv->refused_while_catching_up();
  }
  return out;
}

}  // namespace bftreg::harness
