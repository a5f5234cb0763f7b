// Rolling-restart fault drill on the wall-clock runtime: every server of a
// live cluster is crash/rejoined in sequence while four client threads keep
// a mixed read/write workload running, and the whole recorded execution is
// judged by the atomicity checker afterwards.
//
// This is the membership layer's end-to-end obligation on real threads:
//   - ThreadNetwork::quiesce must fence half-run handlers before the WAL
//     is replayed (no torn state, no data race -- TSan watches);
//   - the recovering server must refuse traffic until quorum catch-up
//     completes (clients just see a slow server and finish on the others);
//   - the post-recovery VIEW-ANNOUNCE must not confuse in-flight ops.
//
// Labeled slow+churn: the sanitizer CI jobs run it (`ctest -L churn`),
// quick local runs skip it (`ctest -LE slow`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checker/consistency.h"
#include "checker/execution.h"
#include "harness/thread_cluster.h"
#include "storage/persistent_server.h"

namespace bftreg::harness {
namespace {

using registers::ProtocolVariant;

/// Unique temp directory per test; removed recursively on destruction.
class TempWalDir {
 public:
  explicit TempWalDir(const std::string& stem) {
    path_ = (std::filesystem::temp_directory_path() /
             ("bftreg_" + stem + "_" + std::to_string(::getpid())))
                .string();
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempWalDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TimeNs wall_now() {
  return static_cast<TimeNs>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

/// ExecutionRecorder is not thread-safe; every client thread records its
/// invocation/response events through this mutex-guarded wrapper.
class SharedRecorder {
 public:
  uint64_t begin_write(const ProcessId& client, Bytes value) {
    std::lock_guard<std::mutex> lock(mu_);
    return rec_.begin_write(client, wall_now(), std::move(value));
  }
  void complete_write(uint64_t id, const Tag& tag) {
    std::lock_guard<std::mutex> lock(mu_);
    rec_.complete_write(id, wall_now(), tag);
  }
  uint64_t begin_read(const ProcessId& client) {
    std::lock_guard<std::mutex> lock(mu_);
    return rec_.begin_read(client, wall_now());
  }
  void complete_read(uint64_t id, Bytes value, const Tag& tag) {
    std::lock_guard<std::mutex> lock(mu_);
    rec_.complete_read(id, wall_now(), std::move(value), tag);
  }
  /// Only valid after the client threads joined.
  const checker::ExecutionRecorder& recorder() const { return rec_; }

 private:
  std::mutex mu_;
  checker::ExecutionRecorder rec_;
};

Bytes value_of(size_t writer, uint64_t seq) {
  Bytes v(8);
  v[0] = static_cast<uint8_t>('A' + writer);
  for (size_t b = 1; b < 8; ++b) v[b] = static_cast<uint8_t>(seq >> (8 * (b - 1)));
  return v;
}

TEST(ChurnStressTest, RollingRestartUnderMixedLoadStaysAtomic) {
  constexpr size_t kN = 5;
  constexpr size_t kF = 1;
  constexpr size_t kWriters = 2;
  constexpr size_t kReaders = 2;

  TempWalDir wal("churn_stress");
  ThreadClusterOptions o;
  o.protocol = ProtocolVariant::kBsrWriteBack;  // the atomic variant: strongest oracle
  o.config.n = kN;
  o.config.f = kF;
  o.num_writers = kWriters;
  o.num_readers = kReaders;
  o.seed = 29;
  o.wal_dir = wal.path();
  ThreadCluster cluster(o);
  cluster.start();

  SharedRecorder recorder;
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;

  // Clients run until the drill ends (stop is set after the last restart),
  // lightly throttled so the recorded history stays small enough for the
  // O(ops^2) checkers while still overlapping every restart window.
  for (size_t w = 0; w < kWriters; ++w) {
    clients.emplace_back([&, w] {
      for (uint64_t seq = 1; !stop.load(); ++seq) {
        Bytes v = value_of(w, seq);
        const uint64_t id = recorder.begin_write(ProcessId::writer(static_cast<uint32_t>(w)), v);
        const auto result = cluster.write(w, std::move(v));
        recorder.complete_write(id, result.tag);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    clients.emplace_back([&, r] {
      while (!stop.load()) {
        const uint64_t id = recorder.begin_read(ProcessId::reader(static_cast<uint32_t>(r)));
        const auto result = cluster.read(r);
        recorder.complete_read(id, result.value, result.tag);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  }

  // The drill: bounce every server in sequence while the load runs. Each
  // restart_server call BLOCKS until the recovered server finished quorum
  // catch-up, so restarts never overlap and a quorum of n - 1 = 4 healthy
  // servers always remains for the clients.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  for (size_t i = 0; i < kN; ++i) {
    cluster.restart_server(i);
    auto* srv = cluster.persistent_server(i);
    ASSERT_NE(srv, nullptr);
    EXPECT_TRUE(srv->is_serving());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  stop.store(true);
  for (auto& t : clients) t.join();
  cluster.stop();

  // Every recorded operation must have completed (blocking API), and the
  // full interleaving -- restarts included -- must still linearize.
  const auto& ops = recorder.recorder().ops();
  ASSERT_FALSE(ops.empty());
  size_t writes = 0;
  for (const auto& op : ops) {
    EXPECT_TRUE(op.completed);
    if (op.kind == checker::OpRecord::Kind::kWrite) ++writes;
  }
  EXPECT_GT(writes, 0u);

  checker::CheckOptions copts;
  const auto verdict = checker::check_atomicity(ops, copts);
  EXPECT_TRUE(verdict.ok) << verdict.violation << "\n"
                          << recorder.recorder().dump_timeline();
}

}  // namespace
}  // namespace bftreg::harness
