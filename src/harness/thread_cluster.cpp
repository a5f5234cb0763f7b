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

namespace {

std::unique_ptr<runtime::ThreadNetwork> make_network(
    const ThreadClusterOptions& options) {
  runtime::RuntimeConfig rc;
  rc.seed = options.seed;
  if (options.delay_hi > 0) {
    rc.delay = std::make_unique<net::UniformDelay>(options.delay_lo,
                                                   options.delay_hi);
  }
  return std::make_unique<runtime::ThreadNetwork>(std::move(rc));
}

}  // namespace

ThreadCluster::ThreadCluster(ThreadClusterOptions options)
    : options_(std::move(options)),
      net_(make_network(options_)),
      assembly_(options_.protocol, options_.config, options_.seed,
                options_.num_writers, options_.num_readers, options_.wal_dir,
                net_.get()) {}

ThreadCluster::~ThreadCluster() { stop(); }

void ThreadCluster::restart_server(size_t index) {
  assert(started_.load() && "restart_server needs a running network");
  const ProcessId pid = ProcessId::server(static_cast<uint32_t>(index));

  // Crash, then wait until no mailbox thread is inside the old server's
  // handler: its last WAL append has fully returned, so the replay below
  // reads a file no one is writing.
  net_->mark_crashed(pid);
  net_->quiesce(pid);
  auto* raw = assembly_.recover_server(index);
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

void ThreadCluster::set_byzantine(size_t index, adversary::StrategyKind kind) {
  assert(!started_.load() && "set_byzantine must precede start()");
  assembly_.set_byzantine(index, kind);
}

void ThreadCluster::start() {
  std::call_once(start_once_, [this] { start_impl(); });
}

void ThreadCluster::start_impl() {
  started_.store(true);
  for (const auto& [pid, process] : assembly_.processes()) {
    net_->add_process(pid, process);
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
                registers::RegisterClient& client = assembly_.writer(writer);
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
                registers::RegisterClient& client = assembly_.reader(reader);
                assert(client.idle() && "at most one operation per client");
                client.read(/*object=*/0, [&out, done](const ReadResult& r) {
                  out = r;
                  done();
                });
              });
  return out;
}

}  // namespace bftreg::harness
