#include "sim/simulator.h"

#include <cassert>
#include <utility>

#include "common/log.h"

namespace bftreg::sim {

Simulator::Simulator(SimConfig config)
    : rng_(config.seed),
      auth_(crypto::KeyRegistry(config.master_secret)),
      scripted_(std::make_unique<net::ScriptedDelay>(
          config.delay ? std::move(config.delay)
                       : std::make_unique<net::FixedDelay>(1000))) {}

void Simulator::add_process(const ProcessId& pid, net::IProcess* process) {
  assert(process != nullptr);
  auto [it, inserted] = processes_.try_emplace(pid, Registration{process, 0});
  if (!inserted) {
    it->second.process = process;
    ++it->second.incarnation;
  }
}

void Simulator::mark_crashed(const ProcessId& pid) { crashed_.insert(pid); }

bool Simulator::is_crashed(const ProcessId& pid) const {
  return crashed_.count(pid) > 0;
}

void Simulator::start_all() {
  for (auto& [pid, reg] : processes_) {
    net::IProcess* p = reg.process;
    ProcessId id = pid;
    schedule_at(now_, [this, p, id] {
      if (!is_crashed(id)) p->on_start();
    });
  }
}

void Simulator::send_payload(const ProcessId& from, const ProcessId& to,
                             Payload payload) {
  if (is_crashed(from)) return;  // a crashed process places no messages
  net::Envelope env;
  env.from = from;
  env.to = to;
  env.seq = next_seq_++;
  env.sent_at = now_;
  env.mac = auth_.seal(from, to, payload);
  env.payload = std::move(payload);
  metrics_.on_send(env.payload.size());
  const TimeNs d = scripted_->delay(env, rng_);
  schedule_at(now_ + d, [this, e = std::move(env)]() mutable { deliver(std::move(e)); });
}

void Simulator::inject_raw(net::Envelope env) {
  env.seq = next_seq_++;
  env.sent_at = now_;
  metrics_.on_send(env.payload.size());
  const TimeNs d = scripted_->delay(env, rng_);
  schedule_at(now_ + d, [this, e = std::move(env)]() mutable { deliver(std::move(e)); });
}

void Simulator::deliver(net::Envelope env) {
  if (is_crashed(env.to)) return;
  auto it = processes_.find(env.to);
  if (it == processes_.end()) return;
  if (!auth_.verify(env.from, env.to, env.payload, env.mac)) {
    metrics_.on_auth_failure();
    LOG_WARN << "dropping forged envelope claiming from=" << to_string(env.from)
             << " to=" << to_string(env.to);
    return;
  }
  metrics_.on_deliver();
  it->second.process->on_message(env);
}

void Simulator::post(const ProcessId& pid, std::function<void()> fn) {
  post_after(pid, 0, std::move(fn));
}

void Simulator::post_after(const ProcessId& pid, TimeNs delta,
                           std::function<void()> fn) {
  // Dropped if `pid` is crashed when it falls due, or re-registered since.
  schedule_at(now_ + delta, [this, pid, inc = incarnation_of(pid), f = std::move(fn)] {
    if (!is_crashed(pid) && incarnation_of(pid) == inc) f();
  });
}

uint64_t Simulator::incarnation_of(const ProcessId& pid) const {
  const auto it = processes_.find(pid);
  return it == processes_.end() ? 0 : it->second.incarnation;
}

void Simulator::schedule_at(TimeNs at, std::function<void()> fn) {
  assert(at >= now_);
  queue_.push(Event{at, next_seq_++, std::move(fn)});
}

void Simulator::schedule_after(TimeNs delta, std::function<void()> fn) {
  schedule_at(now_ + delta, std::move(fn));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  Event ev = queue_.top();
  queue_.pop();
  now_ = ev.at;
  ++events_executed_;
  ev.fn();
  return true;
}

void Simulator::run_until_idle() {
  while (step()) {
  }
}

bool Simulator::run_until(const std::function<bool()>& pred) {
  while (!pred()) {
    if (!step()) return pred();
  }
  return true;
}

void Simulator::run_until_time(TimeNs deadline) {
  while (!queue_.empty() && queue_.top().at <= deadline) {
    step();
  }
  now_ = std::max(now_, deadline);
}

}  // namespace bftreg::sim
