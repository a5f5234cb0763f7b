// Server and client assembly shared by SimCluster and ThreadCluster.
//
// An Assembly builds every process of one register emulation on one
// transport: n servers -- RbServer for kRb, a WAL-backed
// PersistentRegisterServer logging to `<wal_dir>/server-<i>.wal` when
// wal_dir is set, RegisterServer otherwise; BCSR servers start from
// bcsr_initial_elements() -- plus one RegisterClient per writer and reader
// slot. It owns them all, swaps in Byzantine servers and recovered servers,
// and lists them for registration. The cluster holding it registers the
// processes with its network and drives them; restart_server() below is
// the live crash-and-rejoin drill over either real-time transport.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/byzantine_server.h"
#include "registers/registers.h"
#include "storage/persistent_server.h"

namespace bftreg::harness {

class Assembly {
 public:
  Assembly(registers::ProtocolVariant protocol, registers::SystemConfig config,
           uint64_t seed, size_t num_writers, size_t num_readers,
           std::string wal_dir, net::Transport* transport);
  ~Assembly();

  Assembly(const Assembly&) = delete;
  Assembly& operator=(const Assembly&) = delete;

  /// Replaces server `index` with a Byzantine server whose strategy is
  /// make_strategy(kind, seed + index).
  void set_byzantine(size_t index, adversary::StrategyKind kind);
  void set_byzantine(size_t index, std::unique_ptr<adversary::Strategy> strategy);

  /// Retires the WAL-backed server at `index` (kept alive until teardown:
  /// queued events may still reference it) and builds its replacement, a
  /// PersistentRegisterServer that replays the surviving WAL and refuses
  /// register traffic until quorum catch-up (kCatchUpBeforeServe). The
  /// caller registers it, revives delivery and posts begin_catch_up().
  storage::PersistentRegisterServer* recover_server(size_t index);

  /// Every process with its id, in registration order: servers, writers,
  /// readers.
  std::vector<std::pair<ProcessId, net::IProcess*>> processes() const;

  registers::RegisterClient& writer(size_t index) { return *writers_[index]; }
  registers::RegisterClient& reader(size_t index) { return *readers_[index]; }

  /// The honest server at `index`, or nullptr if Byzantine / RB-protocol.
  registers::RegisterServer* server(size_t index) const {
    return honest_servers_[index];
  }
  /// The WAL-backed server at `index`; nullptr when wal_dir is unset or the
  /// slot is Byzantine.
  storage::PersistentRegisterServer* persistent_server(size_t index) {
    return persistent_servers_[index];
  }

 private:
  Bytes initial_for_server(size_t index) const;
  std::string wal_path(size_t index) const;

  const registers::ProtocolVariant protocol_;
  const registers::SystemConfig config_;
  const uint64_t seed_;
  const std::string wal_dir_;
  net::Transport* const transport_;
  std::vector<Bytes> initial_elements_;  // BCSR: Phi_i(v0)

  std::vector<std::unique_ptr<net::IProcess>> servers_;
  /// Parallel honest view of servers_ (nullptr for Byzantine / RB slots).
  std::vector<registers::RegisterServer*> honest_servers_;
  /// Parallel typed view of servers_ when wal_dir is set (else nullptr).
  std::vector<storage::PersistentRegisterServer*> persistent_servers_;
  /// Replaced server objects, kept alive until teardown.
  std::vector<std::unique_ptr<net::IProcess>> retired_;
  std::vector<std::unique_ptr<registers::RegisterClient>> writers_;
  std::vector<std::unique_ptr<registers::RegisterClient>> readers_;
};

/// Blocks until `server` (server `index`) serves again; false, with an
/// error log, when quorum catch-up has not completed within 30 s (a wedged
/// catch-up fails a drill loudly instead of hanging it).
bool await_serving(const storage::PersistentRegisterServer& server,
                   size_t index);

/// Crash-and-rejoin of the WAL-backed server `index` under live traffic on
/// a started real-time transport (runtime::ThreadNetwork or
/// socknet::TcpNetwork): marks it crashed, quiesces it (so WAL replay
/// cannot race a half-run handler), swaps in a recovered server
/// (kCatchUpBeforeServe), revives delivery, and BLOCKS until quorum
/// catch-up completes and the server is serving again. Call from an
/// external thread only, never from a handler. Returns await_serving's
/// verdict.
template <typename Net>
bool restart_server(Net& net, Assembly& assembly, size_t index) {
  const ProcessId pid = ProcessId::server(static_cast<uint32_t>(index));
  // Crash, then wait until no handler of the old server is running: its
  // last WAL append has fully returned, so the replay below reads a file
  // no one is writing.
  net.mark_crashed(pid);
  net.quiesce(pid);
  storage::PersistentRegisterServer* raw = assembly.recover_server(index);
  net.replace_process(pid, raw);
  net.revive(pid);
  // Peers answer the catch-up queries on their own contexts.
  net.post(pid, [raw] { raw->begin_catch_up(); });
  return await_serving(*raw, index);
}

}  // namespace bftreg::harness
