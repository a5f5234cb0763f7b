// Baseline: RB-based Byzantine-tolerant register, n >= 3f+1.
//
// The comparator the paper positions itself against (Kanjani et al. [15]
// style): writes are disseminated with Bracha reliable broadcast among the
// servers, buying the eventual all-or-none property that lets the system
// run with only 3f+1 servers -- at the price of the RB latency tax
// (Section I-B: "reliable broadcast ... typically requires 1.5 rounds") and
// of reads that may have to wait for RB propagation instead of completing
// in one shot.
//
// Clients are RegisterClients with ProtocolVariant::kRb. Flow:
//   write: the replicated WriteOp of Fig. 1 -- get-tag, then PUT-DATA to
//     all servers. Each server treats the writer's PUT-DATA as the Bracha
//     SEND step and runs ECHO/READY with its peers; it applies the pair and
//     ACKs the writer only upon RB-delivery. The writer completes on n-f
//     ACKs.
//   read: RbReadOp (protocol_ops.h) -- QUERY-DATA to all servers; a server
//     answers with its newest pair and subscribes the read, pushing
//     DATA-UPDATE for pairs it applies until the read's READ-DONE.
//
// Scope note: this baseline exists to measure the latency/bandwidth cost
// of relying on RB (benches E1-E3, E7). It is a faithful *latency* model of
// [15] (same phase structure, same RB substrate) and satisfies safety in
// all executions our adversary suite generates, but we do not claim the
// full regularity proof of [15], whose relay details its authors give in
// their paper.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "broadcast/bracha.h"
#include "net/transport.h"
#include "registers/config.h"
#include "registers/messages.h"
#include "registers/object_store.h"

namespace bftreg::registers {

class RbServer final : public net::IProcess {
 public:
  /// How many finished read op ids the server remembers per reader (see
  /// finished_ below).
  static constexpr size_t kFinishedReadsPerReader = 256;

  RbServer(ProcessId self, SystemConfig config, net::Transport* transport,
           Bytes initial);

  void on_message(const net::Envelope& env) override;

  /// The list L for `object`, materialized into owned pairs (ascending by
  /// tag); {(t0, initial)} if this server has never heard of the object.
  std::vector<TaggedValue> store(uint32_t object = 0) const;
  /// Total payload bytes stored across every object, tracked against
  /// max_history GC -- the RB baseline pays the same storage-cost metric
  /// the BSR server reports.
  size_t stored_bytes() const { return stored_bytes_; }
  const broadcast::BrachaStats& bracha_stats() const { return bracha_->stats(); }
  /// Finished read op ids remembered, summed over readers.
  size_t finished_reads() const;

 private:
  void handle_put_data(const ProcessId& from, const RegisterMessage& msg);
  void handle_query(const ProcessId& from, const RegisterMessage& msg);
  void handle_read_done(const ProcessId& from, const RegisterMessage& msg);
  void on_rb_deliver(const Bytes& blob);
  /// True if `op_id` is among `reader`'s remembered finished reads.
  bool read_finished(const ProcessId& reader, uint64_t op_id) const;
  void reply(const ProcessId& to, const RegisterMessage& msg);

  const ProcessId self_;
  const SystemConfig config_;
  net::Transport* const transport_;

  Bytes initial_;
  std::unique_ptr<broadcast::BrachaPeer> bracha_;
  /// object -> L, same compact layout as RegisterServer's shards. RB-
  /// delivery applies every pair (kAll -- the Bracha agreement already
  /// filtered duplicates), and config_.max_history GC now applies here too
  /// (it previously did not, so the baseline's logs grew without bound).
  CompactObjectStore store_;
  /// Single delivery shard, so a plain counter suffices.
  size_t stored_bytes_{0};
  using ReadKey = std::pair<ProcessId, uint64_t>;  // (reader, read op id)
  /// Open read subscriptions per object, so a delivery visits only its own
  /// object's reads, in (reader, op id) order. Keyed per op, not per
  /// reader: a client may pipeline several reads, even of one object, and
  /// each needs its own DATA-UPDATE stream until its own READ-DONE.
  std::map<uint32_t, std::set<ReadKey>> subscribers_;
  /// Per reader, the op ids of its last kFinishedReadsPerReader READ-DONEs,
  /// oldest first. A QUERY-DATA for one of them -- overtaken by its
  /// READ-DONE (channels reorder) or resent after it -- is answered without
  /// subscribing: no later READ-DONE would close that subscription. Op ids
  /// never repeat across operations, so a new read is never taken for a
  /// finished one, and the cap bounds what a reader can make us remember.
  std::map<ProcessId, std::deque<uint64_t>> finished_;
};

}  // namespace bftreg::registers
