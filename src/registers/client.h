// RegisterClient: the client API of the register library, and the only
// protocol client in it.
//
// One object of this class is a full protocol client: pick a protocol
// variant, point it at the server set, and issue reads/writes against any
// number of shared variables -- concurrently. Every operation runs through
// an operation multiplexer (op_mux.h), so a single client sustains
// dozens-to-hundreds of in-flight operations across many objects; each
// operation keeps its own quorum/witness tallies, so the paper's
// per-operation guarantees are untouched (see protocol_ops.h). A caller
// that wants the paper's one-operation-per-client well-formedness (the
// experiment harnesses do) checks idle() before starting an operation.
//
// Deadlines: construct with a RetryPolicy to bound every operation --
// missed deadlines retransmit under the same op id (stragglers still
// count) with multiplicative backoff, and an exhausted retry budget
// completes the operation with its protocol's fallback state, flagged
// result.timed_out. The default policy never times out, matching the
// paper's asynchronous model.
//
//   auto config = SystemConfig::builder().n(5).f(1).build_for_bsr();
//   RegisterClient client(ProcessId::reader(0), config.value(), &net);
//   net.add_process(client.id(), &client);
//   ...
//   client.write(7, value, [](const WriteResult& r) { ... });
//   client.read(7, [](const ReadResult& r) { ... });
//   client.read_batch({1, 2, 3}, [](const BatchReadResult& r) { ... });
//
// All methods must run in the client's execution context (Transport::post
// or a handler), like every protocol object in this repo.
#pragma once

#include <cassert>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "codec/mds_code.h"
#include "net/transport.h"
#include "registers/config.h"
#include "registers/op_mux.h"
#include "registers/protocol_ops.h"
#include "registers/results.h"

namespace bftreg::registers {

struct ClientOptions {
  ProtocolVariant variant{ProtocolVariant::kBsr};
  /// Deadline/retry policy applied to every operation (0 = no deadlines).
  RetryPolicy retry{};
};

/// Per-operation overrides, so one slow read can get a tight deadline (or a
/// critical write extra retries) without mutating the client-wide policy
/// under every other in-flight operation.
struct OpOptions {
  /// Per-attempt deadline in transport ns for this operation; 0 keeps the
  /// effective policy's own timeout.
  TimeNs deadline{0};
  /// Replaces the client-wide RetryPolicy for this operation. `deadline`
  /// (when nonzero) still overrides the timeout of whichever policy wins.
  std::optional<RetryPolicy> retry_policy{};
};

class RegisterClient final : public net::IProcess {
 public:
  RegisterClient(ProcessId self, SystemConfig config, net::Transport* transport,
                 ClientOptions options = {});

  /// Begins a read of `object`; completion (or timeout fallback) is
  /// reported through `cb`. Any number of operations may be in flight.
  void read(uint32_t object, ReadCallback cb);
  /// Same, with per-operation deadline/retry overrides.
  void read(uint32_t object, const OpOptions& opts, ReadCallback cb);

  /// Begins write(value) on `object`.
  void write(uint32_t object, Bytes value, WriteCallback cb);
  /// Same, with per-operation deadline/retry overrides.
  void write(uint32_t object, Bytes value, const OpOptions& opts,
             WriteCallback cb);

  /// Begins a one-round multi-get (replicated RegisterServer variants only:
  /// BCSR stores coded elements, which the batch wire format does not
  /// carry, and RB servers do not serve batches). The object ids are copied
  /// out of `objects` before the call returns; the span may reference
  /// caller storage of any lifetime.
  void read_batch(std::span<const uint32_t> objects, BatchReadCallback cb);
  /// Braced-list convenience: read_batch({1, 2, 3}, cb).
  void read_batch(std::initializer_list<uint32_t> objects,
                  BatchReadCallback cb) {
    read_batch(std::span<const uint32_t>(objects.begin(), objects.size()),
               std::move(cb));
  }

  void on_message(const net::Envelope& env) override { mux_.on_message(env); }

  size_t in_flight() const { return mux_.in_flight(); }
  bool idle() const { return mux_.idle(); }
  const ProcessId& id() const { return mux_.id(); }
  const SystemConfig& config() const { return mux_.config(); }
  net::Transport* transport() const { return mux_.transport(); }

  /// Operations that exhausted their retry budget / deadline-triggered
  /// retransmissions, across all operations of this client.
  uint64_t timeouts() const { return mux_.timeouts(); }
  uint64_t retransmits() const { return mux_.retransmits(); }
  /// BCSR: reads that fell back because decoding was impossible.
  uint64_t decode_failures() const;

 private:
  LocalState& state_for(uint32_t object);
  RetryPolicy effective_policy(const OpOptions& opts) const;

  OpMux mux_;
  const ClientOptions options_;
  std::optional<codec::MdsCode> code_;  // engaged iff variant == kBcsr
  /// Per-object persistent state, shared by single and batched reads.
  std::map<uint32_t, LocalState> states_;
};

/// Future-style blocking facade over RegisterClient for the real-time
/// transports (ThreadNetwork, TcpNetwork; ThreadCluster's blocking
/// operations): each call posts the operation into the client's delivery
/// context and blocks the calling thread until it completes. Call it from
/// application threads only: never under the deterministic simulator,
/// which has no independent thread to make progress, and never from a
/// handler, whose executor thread may be the one that has to run the
/// client. Any number of application threads may call concurrently; the
/// client's context serializes the protocol work.
class BlockingRegisterClient {
 public:
  explicit BlockingRegisterClient(RegisterClient& client) : client_(client) {}

  ReadResult read(uint32_t object, const OpOptions& opts = {});
  WriteResult write(uint32_t object, Bytes value, const OpOptions& opts = {});
  BatchReadResult read_batch(std::span<const uint32_t> objects);
  BatchReadResult read_batch(std::initializer_list<uint32_t> objects) {
    return read_batch(
        std::span<const uint32_t>(objects.begin(), objects.size()));
  }

 private:
  RegisterClient& client_;
};

}  // namespace bftreg::registers
