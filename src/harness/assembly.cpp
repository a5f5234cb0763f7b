#include "harness/assembly.h"

#include <cassert>

#include "storage/persistent_server.h"

namespace bftreg::harness {

using registers::ProtocolVariant;

Assembly::Assembly(ProtocolVariant protocol, registers::SystemConfig config,
                   uint64_t seed, size_t num_writers, size_t num_readers,
                   std::string wal_dir, net::Transport* transport)
    : protocol_(protocol),
      config_(std::move(config)),
      seed_(seed),
      wal_dir_(std::move(wal_dir)),
      transport_(transport) {
  assert(config_.n >= 1 && config_.n >= config_.f);
  assert((protocol_ != ProtocolVariant::kRb || wal_dir_.empty()) &&
         "RB servers keep no WAL");
  if (protocol_ == ProtocolVariant::kBcsr) {
    initial_elements_ = registers::bcsr_initial_elements(config_);
  }

  servers_.resize(config_.n);
  honest_servers_.assign(config_.n, nullptr);
  persistent_servers_.assign(config_.n, nullptr);
  for (size_t i = 0; i < config_.n; ++i) {
    const ProcessId pid = ProcessId::server(static_cast<uint32_t>(i));
    if (protocol_ == ProtocolVariant::kRb) {
      servers_[i] = std::make_unique<registers::RbServer>(
          pid, config_, transport_, initial_for_server(i));
    } else if (!wal_dir_.empty()) {
      auto srv = std::make_unique<storage::PersistentRegisterServer>(
          pid, config_, transport_, initial_for_server(i), wal_path(i));
      honest_servers_[i] = srv.get();
      persistent_servers_[i] = srv.get();
      servers_[i] = std::move(srv);
    } else {
      auto srv = std::make_unique<registers::RegisterServer>(
          pid, config_, transport_, initial_for_server(i));
      honest_servers_[i] = srv.get();
      servers_[i] = std::move(srv);
    }
  }

  const registers::ClientOptions client_options{protocol_};
  for (size_t i = 0; i < num_writers; ++i) {
    writers_.push_back(std::make_unique<registers::RegisterClient>(
        ProcessId::writer(static_cast<uint32_t>(i)), config_, transport_,
        client_options));
  }
  for (size_t i = 0; i < num_readers; ++i) {
    readers_.push_back(std::make_unique<registers::RegisterClient>(
        ProcessId::reader(static_cast<uint32_t>(i)), config_, transport_,
        client_options));
  }
}

Assembly::~Assembly() = default;

Bytes Assembly::initial_for_server(size_t index) const {
  if (protocol_ == ProtocolVariant::kBcsr) return initial_elements_[index];
  return config_.initial_value;
}

std::string Assembly::wal_path(size_t index) const {
  return wal_dir_ + "/server-" + std::to_string(index) + ".wal";
}

void Assembly::set_byzantine(size_t index, adversary::StrategyKind kind) {
  set_byzantine(index, adversary::make_strategy(kind, seed_ + index));
}

void Assembly::set_byzantine(size_t index,
                             std::unique_ptr<adversary::Strategy> strategy) {
  assert(index < config_.n);
  adversary::ServerContext ctx;
  ctx.self = ProcessId::server(static_cast<uint32_t>(index));
  ctx.config = config_;
  ctx.transport = transport_;
  ctx.initial = initial_for_server(index);
  ctx.rng = Rng(seed_ * 7919 + index);
  servers_[index] =
      std::make_unique<adversary::ByzantineServer>(std::move(ctx), std::move(strategy));
  honest_servers_[index] = nullptr;
  persistent_servers_[index] = nullptr;
}

storage::PersistentRegisterServer* Assembly::recover_server(size_t index) {
  assert(!wal_dir_.empty() && "restart_server requires wal_dir");
  assert(persistent_servers_[index] != nullptr &&
         "restart_server only rejoins WAL-backed honest servers");
  retired_.push_back(std::move(servers_[index]));
  auto srv = std::make_unique<storage::PersistentRegisterServer>(
      ProcessId::server(static_cast<uint32_t>(index)), config_, transport_,
      initial_for_server(index), wal_path(index),
      storage::RecoveryPolicy::kCatchUpBeforeServe);
  auto* raw = srv.get();
  honest_servers_[index] = raw;
  persistent_servers_[index] = raw;
  servers_[index] = std::move(srv);
  return raw;
}

std::vector<std::pair<ProcessId, net::IProcess*>> Assembly::processes() const {
  std::vector<std::pair<ProcessId, net::IProcess*>> out;
  for (size_t i = 0; i < servers_.size(); ++i) {
    out.emplace_back(ProcessId::server(static_cast<uint32_t>(i)), servers_[i].get());
  }
  for (const auto& w : writers_) out.emplace_back(w->id(), w.get());
  for (const auto& r : readers_) out.emplace_back(r->id(), r.get());
  return out;
}

}  // namespace bftreg::harness
