// Experiment harness: assemble a full register emulation in the simulator.
//
// A SimCluster assembles (harness/assembly.h) n servers (honest
// RegisterServer / RbServer, or Byzantine ByzantineServer at chosen
// positions), plus one RegisterClient per writer and reader slot speaking
// the selected protocol (each slot keeps the paper's
// one-operation-per-client rule), wires everything to a seeded
// deterministic Simulator, and records every operation into an
// ExecutionRecorder so the checkers can pass judgment afterwards. It is
// used by the integration tests, the property tests, every bench binary,
// and the examples.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/byzantine_server.h"
#include "checker/execution.h"
#include "harness/assembly.h"
#include "registers/registers.h"
#include "sim/simulator.h"

namespace bftreg::harness {

struct ClusterOptions {
  registers::ProtocolVariant protocol{registers::ProtocolVariant::kBsr};
  registers::SystemConfig config{};
  size_t num_writers{1};
  size_t num_readers{1};
  uint64_t seed{1};
  /// Base uniform message delay [lo, hi] in virtual ns.
  TimeNs delay_lo{500};
  TimeNs delay_hi{1500};
  /// When non-empty, honest servers are WAL-backed PersistentRegisterServer
  /// instances logging to `<wal_dir>/server-<i>.wal`, and restart_server()
  /// becomes available (crash -> replay -> quorum catch-up -> rejoin).
  std::string wal_dir{};
};

class SimCluster {
 public:
  explicit SimCluster(ClusterOptions options);
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  // --- setup (before start()) ----------------------------------------------

  /// Replaces server `index` with a Byzantine server of the given kind.
  void set_byzantine(size_t index, adversary::StrategyKind kind);
  void set_byzantine(size_t index, std::unique_ptr<adversary::Strategy> strategy);

  /// Registers processes with the simulator. Idempotent; called implicitly
  /// by the first operation.
  void start();

  // --- synchronous operations (run the simulator until completion) ---------

  registers::WriteResult write(size_t writer, Bytes value);
  registers::ReadResult read(size_t reader);

  // --- asynchronous operations (for concurrency / partial schedules) -------

  /// Starts the op and returns immediately; `sim().run_*` drives it.
  /// The returned id indexes the recorder and the completion queries below.
  uint64_t start_write(size_t writer, Bytes value);
  uint64_t start_read(size_t reader);

  bool op_done(uint64_t recorder_id) const;
  /// Runs the simulator until the given op completes; asserts it did.
  void await(uint64_t recorder_id);
  /// Result accessors (valid once done).
  const registers::WriteResult& write_result(uint64_t recorder_id) const;
  const registers::ReadResult& read_result(uint64_t recorder_id) const;

  // --- faults ---------------------------------------------------------------

  void crash_server(size_t index);
  void crash_writer(size_t index);

  // --- crash/rejoin (requires options.wal_dir) -----------------------------

  /// Crash-and-rejoin: retires the server object at `index` (its WAL file
  /// survives), constructs a recovered PersistentRegisterServer that replays
  /// the WAL, registers it under the same pid, revives delivery, and posts
  /// begin_catch_up(). The server refuses register traffic until it has
  /// synced newest state from a quorum of peers; drive the simulator (or
  /// await ops) to let the catch-up rounds complete.
  void restart_server(size_t index);

  /// The WAL-backed server at `index`; nullptr when wal_dir is unset or the
  /// slot is Byzantine.
  storage::PersistentRegisterServer* persistent_server(size_t index) {
    return assembly_.persistent_server(index);
  }

  // --- access ---------------------------------------------------------------

  sim::Simulator& sim() { return *sim_; }
  checker::ExecutionRecorder& recorder() { return recorder_; }
  const ClusterOptions& options() const { return options_; }

  /// The honest server at `index`, or nullptr if Byzantine / RB-protocol.
  registers::RegisterServer* server(size_t index) { return assembly_.server(index); }
  /// Total bytes stored across honest servers (storage-cost metric, E4).
  size_t total_stored_bytes() const;

  ProcessId writer_id(size_t index) const { return ProcessId::writer(static_cast<uint32_t>(index)); }
  ProcessId reader_id(size_t index) const { return ProcessId::reader(static_cast<uint32_t>(index)); }

 private:
  ClusterOptions options_;
  std::unique_ptr<sim::Simulator> sim_;
  checker::ExecutionRecorder recorder_;
  Assembly assembly_;

  struct PendingWrite {
    bool done{false};
    registers::WriteResult result;
  };
  struct PendingRead {
    bool done{false};
    registers::ReadResult result;
  };
  std::unordered_map<uint64_t, PendingWrite> pending_writes_;
  std::unordered_map<uint64_t, PendingRead> pending_reads_;

  bool started_{false};
};

}  // namespace bftreg::harness
