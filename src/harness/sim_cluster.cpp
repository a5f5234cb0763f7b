#include "harness/sim_cluster.h"

#include <unordered_map>

#include "storage/persistent_server.h"

namespace bftreg::harness {

using registers::ReadResult;
using registers::WriteResult;

SimCluster::SimCluster(ClusterOptions options)
    : options_(std::move(options)),
      sim_(std::make_unique<sim::Simulator>(sim::SimConfig::with_uniform_delay(
          options_.seed, options_.delay_lo, options_.delay_hi))),
      assembly_(options_.protocol, options_.config, options_.seed,
                options_.num_writers, options_.num_readers, options_.wal_dir,
                sim_.get()) {}

SimCluster::~SimCluster() = default;

void SimCluster::set_byzantine(size_t index, adversary::StrategyKind kind) {
  assert(!started_ && "set_byzantine must precede start()");
  assembly_.set_byzantine(index, kind);
}

void SimCluster::set_byzantine(size_t index,
                               std::unique_ptr<adversary::Strategy> strategy) {
  assert(!started_ && "set_byzantine must precede start()");
  assembly_.set_byzantine(index, std::move(strategy));
}

void SimCluster::start() {
  if (started_) return;
  started_ = true;
  for (const auto& [pid, process] : assembly_.processes()) {
    sim_->add_process(pid, process);
  }
}

uint64_t SimCluster::start_write(size_t writer, Bytes value) {
  start();
  assert(writer < options_.num_writers);
  const ProcessId pid = writer_id(writer);
  const uint64_t rec = recorder_.begin_write(pid, sim_->now(), value);
  pending_writes_[rec];  // default-construct the pending entry
  registers::RegisterClient* client = &assembly_.writer(writer);
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
  assert(reader < options_.num_readers);
  const ProcessId pid = reader_id(reader);
  const uint64_t rec = recorder_.begin_read(pid, sim_->now());
  pending_reads_[rec];
  registers::RegisterClient* client = &assembly_.reader(reader);
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
  const ProcessId pid = ProcessId::server(static_cast<uint32_t>(index));
  // The old object must place no further messages; the replacement replays
  // the surviving WAL in its constructor and comes up refusing register
  // traffic until it has caught up.
  sim_->mark_crashed(pid);
  auto* raw = assembly_.recover_server(index);
  sim_->add_process(pid, raw);  // overwrites the old registration
  sim_->revive(pid);
  sim_->post(pid, [raw] { raw->begin_catch_up(); });
}

void SimCluster::announce_view(uint64_t epoch,
                               const std::vector<uint32_t>& members) {
  std::vector<ProcessId> recipients;
  for (const auto& [pid, process] : assembly_.processes()) recipients.push_back(pid);
  for (size_t i = 0; i < options_.config.n; ++i) {
    registers::RegisterServer* srv = assembly_.server(i);
    if (srv == nullptr) continue;
    if (sim_->is_crashed(ProcessId::server(static_cast<uint32_t>(i)))) continue;
    srv->broadcast_view(epoch, members, recipients);
    return;
  }
  assert(false && "announce_view: no live honest server to announce from");
}

void SimCluster::crash_writer(size_t index) {
  sim_->mark_crashed(writer_id(index));
}

size_t SimCluster::total_stored_bytes() const {
  size_t total = 0;
  for (size_t i = 0; i < options_.config.n; ++i) {
    if (const auto* srv = assembly_.server(i)) total += srv->stored_bytes();
  }
  return total;
}

}  // namespace bftreg::harness
