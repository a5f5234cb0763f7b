// Register server: Fig. 3 (BSR) / Fig. 6 (BCSR), plus the responses needed
// by the Section III-C regularity extensions.
//
// The server is value-agnostic: for BSR the stored bytes are full register
// values, for BCSR they are this server's coded elements; the protocol logic
// is identical (the paper's Figs. 3 and 6 differ only in what `v` is). It
// serves the model's whole set of shared variables (Section II-B): every
// request names an object id, and the server keeps one list L per object,
// lazily initialized to {(t0, initial)}.
//
// Sharded dispatch (SystemConfig::server_shards, default 1): the object
// table is split into shards keyed hash(object) % shards, and the server
// asks its transport for one delivery context per shard (delivery_shards /
// shard_of below). Every message that names an object routes to the shard
// that owns it, so PUT-DATA, QUERY-TAG, QUERY-DATA and the history reads
// run on the owner's thread and answer from its store (a
// CompactObjectStore -- flat-hash object table, slab-backed logs; see
// registers/object_store.h), where the newest pair is the last entry of L.
// Two requests read other shards' objects: QUERY-DATA-BATCH, whose object
// list can span owners, and QUERY-OBJECTS, which lists every shard's ids.
// So each shard's store is guarded by that shard's mutex, and every access
// holds it -- uncontended on the owner's own thread. A handler copies what
// it needs out of the store, releases the mutex, and only then replies; no
// thread holds two shard mutexes at once.
//
// Every reply leaves from the handler that produced it. An ACK follows its
// put's apply under the owner's mutex, so any later read -- same shard or
// cross-shard -- sees the put (Fig. 3: ack => stored). The transports'
// mailbox batch hooks (IProcess::on_batch_begin/end) stay no-ops here.
//
// Supported requests:
//   QUERY-TAG           -> TAG-RESP(max tag in L)              (get-tag-resp)
//   PUT-DATA(t, v)      -> ACK; L grows per StorePolicy        (put-data-resp)
//   QUERY-DATA          -> DATA-RESP(max pair in L)            (get-data-resp)
//   QUERY-HISTORY       -> HISTORY-RESP(entire L)      (history regularity fix)
//   QUERY-TAG-HISTORY   -> TAG-HISTORY-RESP(all tags)     (2R read, phase one)
//   QUERY-DATA-AT(t)    -> DATA-AT-RESP(t, v) now or deferred until t arrives;
//                          DATA-AT-MISSING immediately if unknown
//   READ-DONE           -> drops any deferred queries from that reader
//   QUERY-DATA-BATCH    -> DATA-BATCH-RESP: the newest pair of every object
//                          named in the request (extension: one-shot multi-get)
#pragma once

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/sync.h"
#include "net/transport.h"
#include "registers/config.h"
#include "registers/messages.h"
#include "registers/object_store.h"

namespace bftreg::registers {

class RegisterServer : public net::IProcess {
 public:
  /// `initial` is what this server stores under the distinguished tag t0
  /// for every object: the register's v0 for BSR, or this server's coded
  /// element Phi_i(v0) for BCSR.
  RegisterServer(ProcessId self, SystemConfig config, net::Transport* transport,
                 Bytes initial);

  void on_message(const net::Envelope& env) override;

  /// One delivery context per object-table shard (SystemConfig::
  /// server_shards). Durable subclasses that serialize through a WAL pin
  /// this back to 1.
  uint32_t delivery_shards() const override;

  /// Peeks the object id out of the (not yet parsed) wire payload and
  /// returns its owner shard. Pure; runs on the sender's thread. Malformed
  /// or too-short payloads go to shard 0, where the full defensive parse
  /// rejects them.
  uint32_t shard_of(const net::Envelope& env) const override;

  // --- introspection (tests, storage accounting for E4) -------------------
  // Read-only and never materializing: asking about an object this server
  // has never stored answers as its lazy initialization {(t0, initial)}
  // without creating state. Each read takes the shard mutexes one at a
  // time, so any thread may call these.

  /// The list L for `object`, materialized into owned pairs (ascending by
  /// tag); {(t0, initial)} if this server has never heard of the object.
  std::vector<TaggedValue> store(uint32_t object = 0) const;
  Tag max_tag(uint32_t object = 0) const;
  Bytes max_value(uint32_t object = 0) const {
    return newest_entry(object).second;
  }

  /// Total payload bytes stored across every object (the paper's
  /// storage-cost metric). Maintained incrementally by apply_put; debug
  /// builds cross-check against a full walk, so callers must be quiescent
  /// (no in-flight deliveries).
  size_t stored_bytes() const;

  size_t objects_known() const;
  std::vector<uint32_t> object_ids() const;
  uint64_t puts_applied() const {
    return puts_applied_.load(std::memory_order_relaxed);
  }

 protected:
  /// Inserts (tag, value) according to the store policy; returns true if the
  /// entry was added. Also satisfies deferred QUERY-DATA-AT readers.
  /// Virtual so durable servers (storage::PersistentRegisterServer) can
  /// interpose write-ahead logging. Runs on `object`'s owner shard.
  virtual bool apply_put(uint32_t object, const Tag& tag, Bytes value);

  /// Encodes `msg` and sends it to `to`; every reply path funnels through
  /// here.
  void reply(const ProcessId& to, const RegisterMessage& msg);

  /// QUERY-OBJECTS -> OBJECTS-RESP: every object id this server has
  /// materialized (capped; see .cpp). Takes each shard's mutex in turn, so
  /// any shard thread may serve it for a recovering peer.
  void handle_query_objects(const ProcessId& from, const RegisterMessage& req);

  /// Newest (tag, value) of `object` without creating its store. Takes the
  /// owner shard's mutex, so any thread may call it.
  std::pair<Tag, Bytes> newest_entry(uint32_t object) const;

  const ProcessId self_;
  const SystemConfig config_;
  net::Transport* const transport_;

 private:
  struct ObjectTagHash {
    size_t operator()(const std::pair<uint32_t, Tag>& k) const {
      const size_t h = std::hash<Tag>{}(k.second);
      return h ^ (k.first + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    }
  };
  struct OpKeyHash {
    size_t operator()(const std::pair<ProcessId, uint64_t>& k) const {
      const size_t h = std::hash<ProcessId>{}(k.first);
      return h ^ (k.second + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    }
  };

  /// Everything one mailbox shard owns. The transport delivers all
  /// messages for this shard's objects on one thread; other threads read
  /// only `store`, so only `store` is guarded.
  struct Shard {
    Shard(const Bytes& initial, StorePolicy policy, size_t max_history)
        : store(initial, policy, max_history) {}

    mutable Mutex mu;
    /// Object table + per-object logs L.
    CompactObjectStore store GUARDED_BY(mu);
    /// Readers waiting for a tag they asked about that we have not yet
    /// seen: (object, tag) -> [(reader, op_id)]. Owner thread only.
    common::FlatHashMap<std::pair<uint32_t, Tag>,
                        std::vector<std::pair<ProcessId, uint64_t>>,
                        ObjectTagHash>
        deferred;
    /// Reverse index: (reader, op_id) -> the deferred keys that hold its
    /// waiters, so READ-DONE cancels with two targeted lookups instead of
    /// sweeping every deferred entry. An op names one object, so all its
    /// keys land in this shard with it. Owner thread only.
    common::FlatHashMap<std::pair<ProcessId, uint64_t>,
                        std::vector<std::pair<uint32_t, Tag>>, OpKeyHash>
        deferred_by_op;
  };

  uint32_t owner_shard(uint32_t object) const;
  Shard& shard_for(uint32_t object);
  const Shard& shard_for(uint32_t object) const;

  void handle_query_tag(const ProcessId& from, const RegisterMessage& req);
  void handle_put_data(const ProcessId& from, RegisterMessage req);
  void handle_query_data(const ProcessId& from, const RegisterMessage& req);
  void handle_query_history(const ProcessId& from, const RegisterMessage& req);
  void handle_query_tag_history(const ProcessId& from, const RegisterMessage& req);
  void handle_query_data_at(const ProcessId& from, const RegisterMessage& req);
  void handle_read_done(const ProcessId& from, const RegisterMessage& req);
  void handle_query_data_batch(const ProcessId& from, const RegisterMessage& req);

  Bytes initial_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> puts_applied_{0};
  /// Incrementally maintained sum of value bytes across all lists (updated
  /// by owner shards on insert/GC-erase; relaxed -- it is a metric).
  std::atomic<size_t> stored_bytes_{0};
};

}  // namespace bftreg::registers
