// Wall-clock experiment harness: the SimCluster counterpart on real
// threads.
//
// Same processes as SimCluster -- one shared Assembly (harness/assembly.h)
// builds the servers, clients and Byzantine swaps -- but they run on
// runtime::ThreadNetwork (one mailbox thread per delivery shard, real
// delays, wall-clock time) and operations are blocking calls safe to issue
// from concurrent caller threads -- one caller per client, per the model's
// one-operation-per-client rule. Used by bench_wallclock and available to
// applications that want a ready-made deployment harness.
//
// Sharded servers: set options.config.server_shards > 1 and each
// RegisterServer splits its object table across that many mailbox threads
// (hash(object)-disjoint, see registers/server.h); clients and protocol
// semantics are unaffected.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "adversary/byzantine_server.h"
#include "harness/assembly.h"
#include "registers/registers.h"
#include "runtime/thread_network.h"

namespace bftreg::harness {

struct ThreadClusterOptions {
  registers::ProtocolVariant protocol{registers::ProtocolVariant::kBsr};
  registers::SystemConfig config{};
  size_t num_writers{1};
  size_t num_readers{1};
  uint64_t seed{1};
  /// Artificial one-way delay range in wall nanoseconds (0 = none).
  TimeNs delay_lo{0};
  TimeNs delay_hi{0};
  /// When non-empty, honest servers are WAL-backed (logging to
  /// `<wal_dir>/server-<i>.wal`) and restart_server() becomes available.
  std::string wal_dir{};
};

class ThreadCluster {
 public:
  explicit ThreadCluster(ThreadClusterOptions options);
  ~ThreadCluster();

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Replaces server `index` with a Byzantine one. Call before start().
  void set_byzantine(size_t index, adversary::StrategyKind kind);

  /// Spawns all threads; implicit on the first operation. Thread-safe and
  /// idempotent: concurrent first operations from several client threads
  /// race here by design (std::call_once picks the winner).
  void start();

  /// Stops the underlying network. Inherits ThreadNetwork::stop()'s
  /// contract: idempotent, concurrent calls allowed (only the first does
  /// the work), and must come from a client/owner thread -- never from a
  /// protocol callback, which runs on a network-owned mailbox thread.
  void stop();

  /// Blocking operations; safe to call from one thread per client index.
  registers::WriteResult write(size_t writer, Bytes value);
  registers::ReadResult read(size_t reader);

  /// Crash-and-rejoin under live traffic (requires options.wal_dir; the
  /// network must be started). Marks the server crashed, quiesces its
  /// mailbox threads (so WAL replay cannot race a half-run handler), swaps
  /// in a recovered server (kCatchUpBeforeServe), revives delivery, and
  /// BLOCKS until quorum catch-up completes and the server is serving
  /// again. Call from an external (non-mailbox) thread only -- same
  /// contract as stop().
  void restart_server(size_t index);

  /// The WAL-backed server at `index`; nullptr when wal_dir is unset or
  /// the slot is Byzantine.
  storage::PersistentRegisterServer* persistent_server(size_t index) {
    return assembly_.persistent_server(index);
  }

  runtime::ThreadNetwork& net() { return *net_; }
  const ThreadClusterOptions& options() const { return options_; }

 private:
  void start_impl();

  ThreadClusterOptions options_;
  std::unique_ptr<runtime::ThreadNetwork> net_;
  /// In-flight MailItems may still carry (never re-dereferenced) pointers
  /// to servers restart_server() replaced; the assembly keeps those alive.
  Assembly assembly_;
  std::once_flag start_once_;
  // Published by the call_once winner; read by set_byzantine's precondition
  // assert, which may run on a different thread than the one that started.
  std::atomic<bool> started_{false};
};

}  // namespace bftreg::harness
