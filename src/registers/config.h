// Shared system configuration for register emulations.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "net/transport.h"

namespace bftreg::registers {

// Resilience bounds (the only place the `k*f + 1` literals may appear;
// tools/bftreg_lint enforces that everything else calls these helpers, so a
// bound can never silently drift from the paper's theorems).

/// BSR needs n >= 4f + 1 (Theorems 2 and 5).
constexpr size_t bsr_min_servers(size_t f) { return 4 * f + 1; }

/// BCSR needs n >= 5f + 1 (Lemma 4 and Theorem 6).
constexpr size_t bcsr_min_servers(size_t f) { return 5 * f + 1; }

/// RB-based baseline needs n >= 3f + 1 (Bracha broadcast bound).
constexpr size_t rb_min_servers(size_t f) { return 3 * f + 1; }

/// Dimension k = n - 5f of BCSR's [n, k] MDS code (Section IV).
constexpr size_t bcsr_code_dimension(size_t n, size_t f) { return n - 5 * f; }

/// The register emulations this library runs. Each is a client variant, a
/// server kind and a resilience bound (see registers.h for the paper
/// mapping and the guarantee each buys): kProtocolNames spells it and
/// min_servers() gives its bound.
enum class ProtocolVariant {
  kBsr,           // replicated, one-shot safe reads (Section III)
  kBsrHistory,    // one-shot regular reads via histories (III-C, option 1)
  kBsrTwoRound,   // two-round regular reads (III-C, option 2)
  kBcsr,          // erasure-coded, one-shot safe reads (Section IV)
  kRb,            // RB-based baseline (Section VI comparator)
  kBsrWriteBack,  // two-round atomic reads (ABD write-back extension)
};

struct ProtocolName {
  ProtocolVariant variant;
  /// Display name: bench tables, test names, bftreg_run's header.
  const char* display;
  /// Command-line key: bftreg_run --protocol=<key>.
  const char* key;
};

/// The one name table.
inline constexpr ProtocolName kProtocolNames[] = {
    {ProtocolVariant::kBsr, "BSR", "bsr"},
    {ProtocolVariant::kBsrHistory, "BSR-history", "history"},
    {ProtocolVariant::kBsrTwoRound, "BSR-2R", "bsr2r"},
    {ProtocolVariant::kBcsr, "BCSR", "bcsr"},
    {ProtocolVariant::kRb, "RB-baseline", "rb"},
    {ProtocolVariant::kBsrWriteBack, "BSR-WB", "wb"},
};

constexpr const char* to_string(ProtocolVariant v) {
  for (const auto& p : kProtocolNames) {
    if (p.variant == v) return p.display;
  }
  return "?";
}

/// The variant whose command-line key is `key`, if any.
constexpr std::optional<ProtocolVariant> protocol_by_key(std::string_view key) {
  for (const auto& p : kProtocolNames) {
    if (key == p.key) return p.variant;
  }
  return std::nullopt;
}

/// Fewest servers `v` needs to tolerate f Byzantine faults.
constexpr size_t min_servers(ProtocolVariant v, size_t f) {
  switch (v) {
    case ProtocolVariant::kBcsr:
      return bcsr_min_servers(f);
    case ProtocolVariant::kRb:
      return rb_min_servers(f);
    default:
      return bsr_min_servers(f);
  }
}

/// Whether `v`'s reads return the tag of the value they read. BCSR's coded
/// reads return the decoded value alone, so a checker must match its reads
/// to writes by value (checker::CheckOptions::reads_report_tags).
constexpr bool reads_report_tags(ProtocolVariant v) {
  return v != ProtocolVariant::kBcsr;
}

/// How a server maintains its list L of (tag, value) pairs.
enum class StorePolicy : uint8_t {
  /// Fig. 3 verbatim: add (t_in, v_in) only when t_in exceeds every tag in
  /// L. Minimal state; sufficient for BSR/BCSR safety.
  kMaxOnly = 0,
  /// Keep every distinct tag ever received. Required by the regularity
  /// extensions (history reads, two-round reads with deferred replies),
  /// which consult older entries of L.
  kAll = 1,
};

struct SystemConfig {
  size_t n{5};
  size_t f{1};
  Bytes initial_value{};  // v0
  StorePolicy store_policy{StorePolicy::kAll};

  /// Ablation knobs (0 = use the paper's value). Overriding these breaks
  /// the correctness guarantees on purpose; bench_quorum_ablation uses them
  /// to demonstrate *why* the paper's choices are necessary.
  size_t witness_threshold_override{0};
  size_t tag_rank_override{0};

  /// History garbage collection: keep at most this many entries per object
  /// in each server's list L (0 = unbounded, the paper's model). Pruning
  /// never touches correctness of plain BSR/BCSR (they only consult the
  /// newest pair) but *does* erode the regularity extensions, which consult
  /// older entries -- tests/extensions_test.cpp demonstrates the history
  /// fix failing the Theorem 3 schedule at max_history = 1.
  size_t max_history{0};

  /// Real-time transport sizing (event-loop shards, handler threads,
  /// outbound buffering -- see net::TransportOptions), validated by the
  /// builder alongside the protocol knobs. No transport reads it: a
  /// deployment that wants these values passes them to
  /// socknet::TcpConfig::options itself, ThreadNetwork always runs on the
  /// resolved defaults, and the simulator has no threads. It travels with
  /// the config so a tool can record the sizing it ran with.
  net::TransportOptions transport{};

  /// Object-table shards per server: each server asks its transport for
  /// this many delivery contexts and splits its per-object state across
  /// them by hash(object) (see registers/server.h). Purely an execution
  /// knob -- protocol semantics are per-object and objects never span
  /// shards. 1 (the default) reproduces the single-mailbox behavior;
  /// transports without sharding support (the simulator) ignore it.
  size_t server_shards{1};

  /// Operations wait for exactly n - f server responses (Lemma 6 shows
  /// waiting for more forfeits liveness).
  size_t quorum() const { return n - f; }

  /// Catch-up quorum: how many of its n - 1 peers a recovering server must
  /// hear from before adopting state (f of the peers may be faulty or
  /// down). Among any such peer set, every completed write -- stored on
  /// >= n - f servers, hence >= n - f - 1 peers -- has at least
  /// n - 2f - 1 >= f + 1 honest holders for n >= 4f + 1, so the
  /// witness_threshold() vote over the responses recovers it.
  size_t catch_up_quorum() const { return n - f - 1; }

  /// Witness threshold: f + 1 identical responses pin at least one honest
  /// server behind a value (Lemma 5 shows fewer is unsafe).
  size_t witness_threshold() const {
    return witness_threshold_override != 0 ? witness_threshold_override : f + 1;
  }

  /// get-tag selection rank: the writer picks the rank-th highest tag
  /// (1 = maximum). The paper uses f + 1 (Fig. 1 line 4).
  size_t tag_rank() const { return tag_rank_override != 0 ? tag_rank_override : f + 1; }

  std::vector<ProcessId> servers() const {
    std::vector<ProcessId> out;
    out.reserve(n);
    for (uint32_t i = 0; i < n; ++i) out.push_back(ProcessId::server(i));
    return out;
  }

  class Builder;
  /// Fluent construction with centralized validation; the build_for
  /// terminals return Result instead of asserting, so tools and examples
  /// can report a bad (n, f) instead of aborting.
  static Builder builder();
};

/// Validating builder for SystemConfig.
///
///   auto config = SystemConfig::builder().n(5).f(1).build_for_bsr();
///   if (!config) { ...config.error().detail... }
///
/// Validation is centralized here -- the bound check delegates to the same
/// min_servers() the protocols use (built on the only place the paper's
/// k*f+1 literals may appear), so builder and protocol can never disagree
/// on a resilience bound.
class SystemConfig::Builder {
 public:
  Builder& n(size_t value) { config_.n = value; return *this; }
  Builder& f(size_t value) { config_.f = value; return *this; }
  Builder& initial_value(Bytes value) {
    config_.initial_value = std::move(value);
    return *this;
  }
  Builder& store_policy(StorePolicy value) {
    config_.store_policy = value;
    return *this;
  }
  Builder& witness_threshold_override(size_t value) {
    config_.witness_threshold_override = value;
    return *this;
  }
  Builder& tag_rank_override(size_t value) {
    config_.tag_rank_override = value;
    return *this;
  }
  Builder& max_history(size_t value) { config_.max_history = value; return *this; }
  Builder& server_shards(size_t value) {
    config_.server_shards = value;
    return *this;
  }
  /// Transport sizing for the real-time runtimes (0 fields = auto).
  Builder& transport_options(net::TransportOptions value) {
    config_.transport = value;
    return *this;
  }

  /// Protocol-independent sanity only (clients of build() must check the
  /// protocol bound themselves; prefer the build_for terminals).
  Result<SystemConfig> build() const {
    if (config_.n == 0) {
      return Error{Errc::kInvalidArgument, "n must be positive"};
    }
    if (config_.f >= config_.n) {
      return Error{Errc::kInvalidArgument,
                   "f=" + std::to_string(config_.f) + " leaves no quorum at n=" +
                       std::to_string(config_.n)};
    }
    // Ablation overrides above the quorum size would wait for more
    // identical answers than responses collected: the operation never
    // completes. Reject rather than hang.
    if (config_.witness_threshold_override > config_.quorum()) {
      return Error{Errc::kInvalidArgument,
                   "witness threshold override exceeds the quorum n-f"};
    }
    if (config_.tag_rank_override > config_.quorum()) {
      return Error{Errc::kInvalidArgument,
                   "tag rank override exceeds the quorum n-f"};
    }
    if (config_.server_shards == 0) {
      return Error{Errc::kInvalidArgument, "server_shards must be positive"};
    }
    // Transport sizing: 0 means auto, but explicit values must be sane. A
    // frame must fit in the outbox (header + some payload), and shard
    // counts beyond 1024 are a typo, not a deployment.
    if (config_.transport.loop_shards > 1024) {
      return Error{Errc::kInvalidArgument, "transport.loop_shards > 1024"};
    }
    if (config_.transport.mailbox_shards > 1024) {
      return Error{Errc::kInvalidArgument, "transport.mailbox_shards > 1024"};
    }
    if (config_.transport.max_outbox_bytes < 4096) {
      return Error{Errc::kInvalidArgument,
                   "transport.max_outbox_bytes below one frame (4096)"};
    }
    return config_;
  }

  /// build() plus `v`'s resilience bound, n >= min_servers(v, f).
  Result<SystemConfig> build_for(ProtocolVariant v) const {
    auto base = build();
    if (!base) return base;
    const size_t bound = min_servers(v, config_.f);
    if (config_.n < bound) {
      return Error{Errc::kInvalidArgument,
                   std::string(to_string(v)) + " needs n >= " +
                       std::to_string(bound) + " at f=" +
                       std::to_string(config_.f) + ", got n=" +
                       std::to_string(config_.n)};
    }
    return base;
  }

  /// BSR: n >= 4f+1 (Theorems 2 and 5).
  Result<SystemConfig> build_for_bsr() const {
    return build_for(ProtocolVariant::kBsr);
  }

  /// BCSR: n >= 5f+1 (Lemma 4 and Theorem 6).
  Result<SystemConfig> build_for_bcsr() const {
    return build_for(ProtocolVariant::kBcsr);
  }

  /// RB baseline: n >= 3f+1 (Bracha broadcast bound).
  Result<SystemConfig> build_for_rb() const {
    return build_for(ProtocolVariant::kRb);
  }

 private:
  SystemConfig config_{};
};

inline SystemConfig::Builder SystemConfig::builder() { return Builder{}; }

}  // namespace bftreg::registers
