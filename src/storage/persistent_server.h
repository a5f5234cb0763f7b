// Durable register server: RegisterServer + write-ahead logging.
//
// Applies the standard WAL discipline to Fig. 3/6's put-data-resp: every
// entry added to a list L is first appended to the log, and a restarted
// server replays the log before serving. Why this is safe in the paper's
// model: a recovered server resumes from a state it genuinely held, so to
// every client it is indistinguishable from a server that was merely slow
// -- a behaviour all the protocols already tolerate. (A server that lost
// its state and rejoined blank would NOT be safe: it could un-witness a
// value that a completed write counted on; see
// storage_test.cpp/RecoveryKeepsWitnessGuarantee.)
//
// Recovery policy (crash/rejoin, docs/MEMBERSHIP.md): replay alone
// restores only what THIS server had acknowledged before the crash. Writes
// that completed at a quorum while it was down are absent, and answering
// queries from that stale state would shrink the effective witness count of
// completed writes (exactly the hazard Bonomi et al.'s stabilizing storage
// guards against). Under kCatchUpBeforeServe the server therefore refuses
// all register traffic after replay until it has synced the newest state
// from a quorum of peers:
//
//   replay WAL --> kCatchingUp: refuse QUERY/PUT (count them, reply
//     nothing -- to clients it is indistinguishable from a slow server)
//     phase 1: QUERY-OBJECTS to every peer; union the ids from
//              catch_up_quorum() responders
//   --> phase 2: QUERY-DATA-BATCH over the union; per (tag, value) group
//              with >= witness_threshold() identical votes, adopt via the
//              normal logged apply_put
//   --> serving (nothing is announced: see finish_catch_up)
//
// Safety of the vote rule: a completed write is on >= n - f servers, so on
// >= n - f - 1 of this server's peers; any catch_up_quorum() = n - f - 1
// responders overlap those in >= n - 2f - 1 >= f + 1 honest servers for
// n >= 4f + 1 -- enough to clear the witness threshold, so no completed
// write can be lost, while f Byzantine peers can never fabricate one.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "registers/server.h"
#include "storage/wal.h"

namespace bftreg::storage {

/// What a restarted server may do between WAL replay and its first reply.
enum class RecoveryPolicy : uint8_t {
  /// Serve straight from the replayed state (safe only if the server never
  /// missed a completed write, e.g. in single-process tests that restart
  /// the whole cluster).
  kServeImmediately = 0,
  /// Refuse all register traffic until quorum catch-up completes (the
  /// rejoin path; see the file comment).
  kCatchUpBeforeServe = 1,
};

class PersistentRegisterServer final : public registers::RegisterServer {
 public:
  /// Opens (or creates) the WAL at `wal_path` and replays it into the
  /// in-memory state before the server handles any message. Under
  /// kCatchUpBeforeServe the server comes up NOT serving; the harness must
  /// call begin_catch_up() once the transport can deliver to it.
  PersistentRegisterServer(ProcessId self, registers::SystemConfig config,
                           net::Transport* transport, Bytes initial,
                           std::string wal_path,
                           RecoveryPolicy policy = RecoveryPolicy::kServeImmediately);

  /// Records replayed during construction (0 for a fresh server).
  size_t recovered_records() const { return recovered_; }
  /// Tail bytes discarded during replay (torn final record).
  size_t recovered_truncated_bytes() const { return truncated_; }

  /// Rewrites the WAL to the current live state (drops superseded and
  /// duplicate entries).
  void compact();

  const WriteAheadLog& wal() const { return wal_; }

  /// Durable servers stay single-shard regardless of config: every applied
  /// put appends to one WAL, and a per-shard dispatch would interleave
  /// appends from several threads into an unsynchronized log.
  uint32_t delivery_shards() const override { return 1; }

  /// Refuses register traffic while catching up (see file comment).
  void on_message(const net::Envelope& env) override;

  // --- recovery state machine ---------------------------------------------

  /// Launches phase 1 (QUERY-OBJECTS to every peer). No-op when already
  /// serving. Must run after the transport can route this server's id.
  void begin_catch_up();

  /// False exactly while the catch-up state machine runs; any thread.
  bool is_serving() const { return serving_.load(std::memory_order_acquire); }

  /// QUERY/PUT requests dropped (unanswered) during catch-up: the proof
  /// obligation "a recovering server never answers before catch-up" is
  /// this counter being the only trace those requests left.
  uint64_t refused_while_catching_up() const {
    return refused_.load(std::memory_order_relaxed);
  }

  /// (tag, value) pairs adopted from peers during catch-up (WAL-logged).
  size_t catch_up_adopted() const { return adopted_; }

 protected:
  bool apply_put(uint32_t object, const Tag& tag, Bytes value) override;

 private:
  /// Catch-up wire ops use fixed ids in a namespace no client allocator
  /// produces (OpMux seq numbers are never 0 in the low word's high byte
  /// pattern below), so peer replies route unambiguously.
  static constexpr uint64_t kCatchUpObjectsOp = 0xB00075FA00000001ull;
  static constexpr uint64_t kCatchUpBatchOp = 0xB00075FA00000002ull;

  void handle_catch_up_message(const net::Envelope& env);
  void start_batch_phase();
  void finish_catch_up();
  std::vector<ProcessId> peers() const;

  WriteAheadLog wal_;
  bool recovering_{false};
  size_t recovered_{0};
  size_t truncated_{0};

  // --- catch-up state (single delivery shard: one thread mutates it) ------
  std::atomic<bool> serving_{true};
  std::atomic<uint64_t> refused_{0};
  bool batch_phase_{false};
  /// Peer indices heard from in each phase (dedup: one vote per peer).
  std::set<uint32_t> objects_peers_;
  std::set<uint32_t> batch_peers_;
  /// Union of object ids reported by phase-1 responders.
  std::set<uint32_t> object_union_;
  /// object -> (tag, value) -> distinct-peer vote count.
  std::map<uint32_t, std::map<registers::TaggedValue, size_t>> votes_;
  size_t adopted_{0};
};

}  // namespace bftreg::storage
