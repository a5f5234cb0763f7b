#include "harness/thread_cluster.h"

#include <cassert>
#include <chrono>
#include <future>
#include <thread>

#include "common/log.h"
#include "storage/persistent_server.h"

namespace bftreg::harness {

using registers::ReadResult;
using registers::WriteResult;

ThreadCluster::ThreadCluster(ThreadClusterOptions options)
    : options_(std::move(options)) {
  runtime::RuntimeConfig rc;
  rc.seed = options_.seed;
  if (options_.delay_hi > 0) {
    rc.delay = std::make_unique<net::UniformDelay>(options_.delay_lo,
                                                   options_.delay_hi);
  }
  net_ = std::make_unique<runtime::ThreadNetwork>(std::move(rc));
  if (options_.protocol == Protocol::kBcsr) {
    initial_elements_ = registers::bcsr_initial_elements(options_.config);
  }
  build();
}

ThreadCluster::~ThreadCluster() { stop(); }

Bytes ThreadCluster::initial_for_server(size_t index) const {
  if (options_.protocol == Protocol::kBcsr) return initial_elements_[index];
  return options_.config.initial_value;
}

std::string ThreadCluster::wal_path(size_t index) const {
  return options_.wal_dir + "/server-" + std::to_string(index) + ".wal";
}

void ThreadCluster::build() {
  const auto& cfg = options_.config;

  servers_.resize(cfg.n);
  persistent_servers_.assign(cfg.n, nullptr);
  for (size_t i = 0; i < cfg.n; ++i) {
    const ProcessId pid = ProcessId::server(static_cast<uint32_t>(i));
    if (options_.protocol == Protocol::kRb) {
      servers_[i] = std::make_unique<registers::RbServer>(pid, cfg, net_.get(),
                                                          initial_for_server(i));
    } else if (!options_.wal_dir.empty()) {
      auto srv = std::make_unique<storage::PersistentRegisterServer>(
          pid, cfg, net_.get(), initial_for_server(i), wal_path(i));
      persistent_servers_[i] = srv.get();
      servers_[i] = std::move(srv);
    } else {
      servers_[i] = std::make_unique<registers::RegisterServer>(
          pid, cfg, net_.get(), initial_for_server(i));
    }
  }

  const registers::ClientOptions client_options{to_variant(options_.protocol)};
  for (size_t i = 0; i < options_.num_writers; ++i) {
    writers_.push_back(std::make_unique<registers::RegisterClient>(
        ProcessId::writer(static_cast<uint32_t>(i)), cfg, net_.get(),
        client_options));
  }
  for (size_t i = 0; i < options_.num_readers; ++i) {
    readers_.push_back(std::make_unique<registers::RegisterClient>(
        ProcessId::reader(static_cast<uint32_t>(i)), cfg, net_.get(),
        client_options));
  }
}

void ThreadCluster::restart_server(size_t index) {
  assert(!options_.wal_dir.empty() && "restart_server requires wal_dir");
  assert(started_.load() && "restart_server needs a running network");
  storage::PersistentRegisterServer* old = persistent_servers_[index];
  assert(old != nullptr && "restart_server only rejoins WAL-backed servers");
  (void)old;
  const ProcessId pid = ProcessId::server(static_cast<uint32_t>(index));

  // Crash, then wait until no mailbox thread is inside the old server's
  // handler: its last WAL append has fully returned, so the replay below
  // reads a file no one is writing.
  net_->mark_crashed(pid);
  net_->quiesce(pid);
  retired_.push_back(std::move(servers_[index]));

  auto srv = std::make_unique<storage::PersistentRegisterServer>(
      pid, options_.config, net_.get(), initial_for_server(index),
      wal_path(index), storage::RecoveryPolicy::kCatchUpBeforeServe);
  auto* raw = srv.get();
  persistent_servers_[index] = raw;
  servers_[index] = std::move(srv);
  net_->replace_process(pid, raw);
  net_->revive(pid);
  net_->post(pid, [raw] { raw->begin_catch_up(); });

  // Block until the catch-up state machine finishes (peers answer on their
  // own mailbox threads). Bounded: a wedged catch-up should fail the drill
  // loudly, not hang the suite.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!raw->is_serving()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      LOG_ERROR << "restart_server(" << index
                << "): quorum catch-up did not complete within 30s";
      assert(false && "restart_server: catch-up timed out");
      return;
    }
    std::this_thread::yield();
  }
}

storage::PersistentRegisterServer* ThreadCluster::persistent_server(
    size_t index) {
  return persistent_servers_[index];
}

void ThreadCluster::set_byzantine(size_t index, adversary::StrategyKind kind) {
  assert(!started_.load() && "set_byzantine must precede start()");
  adversary::ServerContext ctx;
  ctx.self = ProcessId::server(static_cast<uint32_t>(index));
  ctx.config = options_.config;
  ctx.transport = net_.get();
  ctx.initial = initial_for_server(index);
  ctx.rng = Rng(options_.seed * 7919 + index);
  servers_[index] = std::make_unique<adversary::ByzantineServer>(
      std::move(ctx), adversary::make_strategy(kind, options_.seed + index));
  persistent_servers_[index] = nullptr;
}

void ThreadCluster::start() {
  std::call_once(start_once_, [this] { start_impl(); });
}

void ThreadCluster::start_impl() {
  started_.store(true);
  for (size_t i = 0; i < servers_.size(); ++i) {
    net_->add_process(ProcessId::server(static_cast<uint32_t>(i)),
                      servers_[i].get());
  }
  for (size_t i = 0; i < writers_.size(); ++i) {
    net_->add_process(ProcessId::writer(static_cast<uint32_t>(i)),
                      writers_[i].get());
  }
  for (size_t i = 0; i < readers_.size(); ++i) {
    net_->add_process(ProcessId::reader(static_cast<uint32_t>(i)),
                      readers_[i].get());
  }
  net_->start();
}

void ThreadCluster::stop() {
  if (net_) net_->stop();
}

WriteResult ThreadCluster::write(size_t writer, Bytes value) {
  start();
  WriteResult out;
  runtime::BlockingInvoker invoker(*net_);
  invoker.run(ProcessId::writer(static_cast<uint32_t>(writer)),
              [&](std::function<void()> done) {
                registers::RegisterClient& client = *writers_[writer];
                assert(client.idle() && "at most one operation per client");
                client.write(/*object=*/0, std::move(value),
                             [&out, done](const WriteResult& r) {
                               out = r;
                               done();
                             });
              });
  return out;
}

ReadResult ThreadCluster::read(size_t reader) {
  start();
  ReadResult out;
  runtime::BlockingInvoker invoker(*net_);
  invoker.run(ProcessId::reader(static_cast<uint32_t>(reader)),
              [&](std::function<void()> done) {
                registers::RegisterClient& client = *readers_[reader];
                assert(client.idle() && "at most one operation per client");
                client.read(/*object=*/0, [&out, done](const ReadResult& r) {
                  out = r;
                  done();
                });
              });
  return out;
}

}  // namespace bftreg::harness
