#include "harness/sim_cluster.h"

#include <unordered_map>

#include "storage/persistent_server.h"

namespace bftreg::harness {

using registers::ReadResult;
using registers::WriteResult;

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kBsr: return "BSR";
    case Protocol::kBsrHistory: return "BSR-history";
    case Protocol::kBsr2R: return "BSR-2R";
    case Protocol::kBcsr: return "BCSR";
    case Protocol::kRb: return "RB-baseline";
    case Protocol::kBsrWb: return "BSR-WB";
  }
  return "?";
}

size_t min_servers(Protocol p, size_t f) {
  switch (p) {
    case Protocol::kBcsr:
      return registers::bcsr_min_servers(f);
    case Protocol::kRb:
      return registers::rb_min_servers(f);
    default:
      return registers::bsr_min_servers(f);
  }
}

registers::ProtocolVariant to_variant(Protocol p) {
  switch (p) {
    case Protocol::kBsr: return registers::ProtocolVariant::kBsr;
    case Protocol::kBsrHistory: return registers::ProtocolVariant::kBsrHistory;
    case Protocol::kBsr2R: return registers::ProtocolVariant::kBsrTwoRound;
    case Protocol::kBcsr: return registers::ProtocolVariant::kBcsr;
    case Protocol::kRb: return registers::ProtocolVariant::kRb;
    case Protocol::kBsrWb: return registers::ProtocolVariant::kBsrWriteBack;
  }
  return registers::ProtocolVariant::kBsr;
}

SimCluster::SimCluster(ClusterOptions options) : options_(std::move(options)) {
  assert(options_.config.n >= 1 && options_.config.n >= options_.config.f);
  sim_ = std::make_unique<sim::Simulator>(sim::SimConfig::with_uniform_delay(
      options_.seed, options_.delay_lo, options_.delay_hi));
  if (options_.protocol == Protocol::kBcsr) {
    initial_elements_ = registers::bcsr_initial_elements(options_.config);
  }
  build();
}

SimCluster::~SimCluster() = default;

Bytes SimCluster::initial_for_server(size_t index) const {
  if (options_.protocol == Protocol::kBcsr) return initial_elements_[index];
  return options_.config.initial_value;
}

std::string SimCluster::wal_path(size_t index) const {
  return options_.wal_dir + "/server-" + std::to_string(index) + ".wal";
}

void SimCluster::build() {
  const auto& cfg = options_.config;

  servers_.resize(cfg.n);
  honest_servers_.assign(cfg.n, nullptr);
  persistent_servers_.assign(cfg.n, nullptr);
  for (size_t i = 0; i < cfg.n; ++i) {
    const ProcessId pid = ProcessId::server(static_cast<uint32_t>(i));
    if (options_.protocol == Protocol::kRb) {
      servers_[i] = std::make_unique<registers::RbServer>(pid, cfg, sim_.get(),
                                                          initial_for_server(i));
    } else if (!options_.wal_dir.empty()) {
      auto srv = std::make_unique<storage::PersistentRegisterServer>(
          pid, cfg, sim_.get(), initial_for_server(i), wal_path(i));
      honest_servers_[i] = srv.get();
      persistent_servers_[i] = srv.get();
      servers_[i] = std::move(srv);
    } else {
      auto srv = std::make_unique<registers::RegisterServer>(pid, cfg, sim_.get(),
                                                             initial_for_server(i));
      honest_servers_[i] = srv.get();
      servers_[i] = std::move(srv);
    }
  }

  const registers::ClientOptions client_options{to_variant(options_.protocol)};
  for (size_t i = 0; i < options_.num_writers; ++i) {
    writers_.push_back(std::make_unique<registers::RegisterClient>(
        writer_id(i), cfg, sim_.get(), client_options));
  }
  for (size_t i = 0; i < options_.num_readers; ++i) {
    readers_.push_back(std::make_unique<registers::RegisterClient>(
        reader_id(i), cfg, sim_.get(), client_options));
  }
}

void SimCluster::set_byzantine(size_t index, adversary::StrategyKind kind) {
  set_byzantine(index, adversary::make_strategy(kind, options_.seed + index));
}

void SimCluster::set_byzantine(size_t index,
                               std::unique_ptr<adversary::Strategy> strategy) {
  assert(!started_ && "set_byzantine must precede start()");
  assert(index < options_.config.n);
  adversary::ServerContext ctx;
  ctx.self = ProcessId::server(static_cast<uint32_t>(index));
  ctx.config = options_.config;
  ctx.transport = sim_.get();
  ctx.initial = initial_for_server(index);
  ctx.rng = Rng(options_.seed * 7919 + index);
  servers_[index] =
      std::make_unique<adversary::ByzantineServer>(std::move(ctx), std::move(strategy));
  honest_servers_[index] = nullptr;
  persistent_servers_[index] = nullptr;
}

void SimCluster::start() {
  if (started_) return;
  started_ = true;
  for (size_t i = 0; i < servers_.size(); ++i) {
    sim_->add_process(ProcessId::server(static_cast<uint32_t>(i)), servers_[i].get());
  }
  for (size_t i = 0; i < writers_.size(); ++i) {
    sim_->add_process(writer_id(i), writers_[i].get());
  }
  for (size_t i = 0; i < readers_.size(); ++i) {
    sim_->add_process(reader_id(i), readers_[i].get());
  }
}

uint64_t SimCluster::start_write(size_t writer, Bytes value) {
  start();
  assert(writer < writers_.size());
  const ProcessId pid = writer_id(writer);
  const uint64_t rec = recorder_.begin_write(pid, sim_->now(), value);
  pending_writes_[rec];  // default-construct the pending entry
  registers::RegisterClient* client = writers_[writer].get();
  sim_->post(pid, [this, client, rec, v = std::move(value)]() mutable {
    assert(client->idle() && "at most one operation per client");
    client->write(/*object=*/0, std::move(v), [this, rec](const WriteResult& r) {
      recorder_.complete_write(rec, sim_->now(), r.tag);
      auto& p = pending_writes_[rec];
      p.done = true;
      p.result = r;
    });
  });
  return rec;
}

uint64_t SimCluster::start_read(size_t reader) {
  start();
  assert(reader < readers_.size());
  const ProcessId pid = reader_id(reader);
  const uint64_t rec = recorder_.begin_read(pid, sim_->now());
  pending_reads_[rec];
  registers::RegisterClient* client = readers_[reader].get();
  sim_->post(pid, [this, client, rec] {
    assert(client->idle() && "at most one operation per client");
    client->read(/*object=*/0, [this, rec](const ReadResult& r) {
      recorder_.complete_read(rec, sim_->now(), r.value, r.tag);
      auto& p = pending_reads_[rec];
      p.done = true;
      p.result = r;
    });
  });
  return rec;
}

bool SimCluster::op_done(uint64_t recorder_id) const {
  if (auto it = pending_writes_.find(recorder_id); it != pending_writes_.end()) {
    return it->second.done;
  }
  if (auto it = pending_reads_.find(recorder_id); it != pending_reads_.end()) {
    return it->second.done;
  }
  return false;
}

void SimCluster::await(uint64_t recorder_id) {
  const bool ok = sim_->run_until([&] { return op_done(recorder_id); });
  assert(ok && "operation did not complete (liveness failure?)");
  (void)ok;
}

const WriteResult& SimCluster::write_result(uint64_t recorder_id) const {
  auto it = pending_writes_.find(recorder_id);
  assert(it != pending_writes_.end() && it->second.done);
  return it->second.result;
}

const ReadResult& SimCluster::read_result(uint64_t recorder_id) const {
  auto it = pending_reads_.find(recorder_id);
  assert(it != pending_reads_.end() && it->second.done);
  return it->second.result;
}

WriteResult SimCluster::write(size_t writer, Bytes value) {
  const uint64_t rec = start_write(writer, std::move(value));
  await(rec);
  return write_result(rec);
}

ReadResult SimCluster::read(size_t reader) {
  const uint64_t rec = start_read(reader);
  await(rec);
  return read_result(rec);
}

void SimCluster::crash_server(size_t index) {
  sim_->mark_crashed(ProcessId::server(static_cast<uint32_t>(index)));
}

void SimCluster::restart_server(size_t index) {
  assert(!options_.wal_dir.empty() && "restart_server requires wal_dir");
  assert(persistent_servers_[index] != nullptr &&
         "restart_server only rejoins WAL-backed honest servers");
  const ProcessId pid = ProcessId::server(static_cast<uint32_t>(index));
  // Ensure the old object places no further messages, then retire it (kept
  // alive until teardown; queued simulator closures may still run).
  sim_->mark_crashed(pid);
  retired_.push_back(std::move(servers_[index]));

  // The replacement replays the surviving WAL in its constructor and comes
  // up refusing register traffic (kCatchUpBeforeServe).
  auto srv = std::make_unique<storage::PersistentRegisterServer>(
      pid, options_.config, sim_.get(), initial_for_server(index),
      wal_path(index), storage::RecoveryPolicy::kCatchUpBeforeServe);
  auto* raw = srv.get();
  honest_servers_[index] = raw;
  persistent_servers_[index] = raw;
  servers_[index] = std::move(srv);
  sim_->add_process(pid, raw);  // overwrites the old registration
  sim_->revive(pid);
  sim_->post(pid, [raw] { raw->begin_catch_up(); });
}

storage::PersistentRegisterServer* SimCluster::persistent_server(size_t index) {
  return persistent_servers_[index];
}

void SimCluster::announce_view(uint64_t epoch,
                               const std::vector<uint32_t>& members) {
  std::vector<ProcessId> recipients = options_.config.servers();
  for (size_t i = 0; i < writers_.size(); ++i) recipients.push_back(writer_id(i));
  for (size_t i = 0; i < readers_.size(); ++i) recipients.push_back(reader_id(i));
  for (size_t i = 0; i < honest_servers_.size(); ++i) {
    if (honest_servers_[i] == nullptr) continue;
    if (sim_->is_crashed(ProcessId::server(static_cast<uint32_t>(i)))) continue;
    honest_servers_[i]->broadcast_view(epoch, members, recipients);
    return;
  }
  assert(false && "announce_view: no live honest server to announce from");
}

void SimCluster::crash_writer(size_t index) {
  sim_->mark_crashed(writer_id(index));
}

registers::RegisterServer* SimCluster::server(size_t index) {
  return honest_servers_[index];
}

size_t SimCluster::total_stored_bytes() const {
  size_t total = 0;
  for (const auto* srv : honest_servers_) {
    if (srv != nullptr) total += srv->stored_bytes();
  }
  return total;
}

}  // namespace bftreg::harness
