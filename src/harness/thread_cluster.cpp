#include "harness/thread_cluster.h"

#include <cassert>

namespace bftreg::harness {

using registers::BlockingRegisterClient;
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

/// Marks a client slot busy for the duration of one blocking operation.
class OneOpGuard {
 public:
  explicit OneOpGuard(std::atomic<bool>& busy) : busy_(busy) {
    [[maybe_unused]] const bool was_busy =
        busy_.exchange(true, std::memory_order_acquire);
    assert(!was_busy && "at most one operation per client");
  }
  ~OneOpGuard() { busy_.store(false, std::memory_order_release); }

  OneOpGuard(const OneOpGuard&) = delete;
  OneOpGuard& operator=(const OneOpGuard&) = delete;

 private:
  std::atomic<bool>& busy_;
};

}  // namespace

ThreadCluster::ThreadCluster(ThreadClusterOptions options)
    : options_(std::move(options)),
      net_(make_network(options_)),
      assembly_(options_.protocol, options_.config, options_.seed,
                options_.num_writers, options_.num_readers, options_.wal_dir,
                net_.get()),
      writer_busy_(new std::atomic<bool>[options_.num_writers]()),
      reader_busy_(new std::atomic<bool>[options_.num_readers]()) {}

ThreadCluster::~ThreadCluster() { stop(); }

void ThreadCluster::restart_server(size_t index) {
  assert(started_.load() && "restart_server needs a running network");
  [[maybe_unused]] const bool serving =
      harness::restart_server(*net_, assembly_, index);
  assert(serving && "restart_server: catch-up timed out");
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
  OneOpGuard guard(writer_busy_[writer]);
  return BlockingRegisterClient(assembly_.writer(writer))
      .write(/*object=*/0, std::move(value));
}

ReadResult ThreadCluster::read(size_t reader) {
  start();
  OneOpGuard guard(reader_busy_[reader]);
  return BlockingRegisterClient(assembly_.reader(reader)).read(/*object=*/0);
}

}  // namespace bftreg::harness
