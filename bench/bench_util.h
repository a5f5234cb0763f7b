// Shared helpers for the experiment binaries (E1-E8 + ablations).
//
// Each bench binary regenerates one quantitative claim of the paper (see
// DESIGN.md §5 for the experiment index and EXPERIMENTS.md for recorded
// results). Helpers here build clusters, drive standard workloads, and
// collect virtual-time latency samples.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "harness/sim_cluster.h"
#include "workload/workload.h"

namespace bftreg::bench {

using registers::ProtocolVariant;

/// The shared command-line surface of the bench binaries. Every binary
/// accepts the same four flags with the same spellings and semantics --
/// CI and tools/bench_regress drive all of them identically:
///
///   --json=PATH       machine-readable snapshot ("" = table only)
///   --quick           CI-sized budgets (each binary documents its scale)
///   --seed=N          workload/delay seed (default 1)
///   --duration=SECS   per-point measurement window, for binaries that
///                     measure for a fixed time instead of a fixed count
///
/// Binary-specific flags go through the `extra` callback: it sees each
/// unrecognized argument and returns whether it consumed it. parse()
/// returns nullopt (after printing usage) on anything left over.
struct BenchArgs {
  std::string json_path;
  bool quick{false};
  uint64_t seed{1};
  double duration_s{0};

  using ExtraFlag = std::function<bool(const char*)>;

  static std::optional<BenchArgs> parse(int argc, char** argv,
                                        const char* extra_usage = "",
                                        const ExtraFlag& extra = {}) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--json=", 7) == 0) {
        args.json_path = a + 7;
      } else if (std::strcmp(a, "--quick") == 0) {
        args.quick = true;
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        args.seed = std::strtoull(a + 7, nullptr, 10);
      } else if (std::strncmp(a, "--duration=", 11) == 0) {
        args.duration_s = std::strtod(a + 11, nullptr);
      } else if (extra && extra(a)) {
        // consumed by the binary
      } else {
        std::fprintf(stderr,
                     "usage: %s [--json=PATH] [--quick] [--seed=N] "
                     "[--duration=SECS]%s%s\n",
                     argv[0], *extra_usage ? " " : "", extra_usage);
        return std::nullopt;
      }
    }
    return args;
  }
};

/// One measured point of a gated bench. `key` names the point; each metric
/// is tagged with how tools/bench_regress treats it against a baseline:
/// `floor` (higher is better, fails on a drop), `ceiling` (lower is better,
/// fails on growth) or `info` (recorded, never compared).
struct BenchRow {
  using Metrics = std::vector<std::pair<std::string, double>>;

  std::string key;
  Metrics floor{};
  Metrics ceiling{};
  Metrics info{};
};

/// Writes `rows` to `path` as a bftreg-bench-rows-v1 snapshot, the one
/// format tools/bench_regress reads. Each row sits on its own line so the
/// gate's parser needs no JSON library.
inline bool write_rows(const std::string& path, bool quick,
                       const std::vector<BenchRow>& rows) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(out,
               "{\"schema\": \"bftreg-bench-rows-v1\", \"quick\": %s, "
               "\"rows\": [\n",
               quick ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    std::fprintf(out, "  {\"key\": \"%s\"", row.key.c_str());
    const std::pair<const char*, const BenchRow::Metrics*> groups[] = {
        {"floor", &row.floor}, {"ceiling", &row.ceiling}, {"info", &row.info}};
    for (const auto& [tag, metrics] : groups) {
      if (metrics->empty()) continue;
      std::fprintf(out, ", \"%s\": {", tag);
      for (size_t m = 0; m < metrics->size(); ++m) {
        std::fprintf(out, "%s\"%s\": %.2f", m == 0 ? "" : ", ",
                     (*metrics)[m].first.c_str(), (*metrics)[m].second);
      }
      std::fprintf(out, "}");
    }
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

inline harness::ClusterOptions make_options(ProtocolVariant protocol, size_t n,
                                            size_t f, uint64_t seed,
                                            TimeNs delay_lo, TimeNs delay_hi) {
  harness::ClusterOptions o;
  o.protocol = protocol;
  o.config.n = n;
  o.config.f = f;
  o.num_writers = 2;
  o.num_readers = 2;
  o.seed = seed;
  o.delay_lo = delay_lo;
  o.delay_hi = delay_hi;
  return o;
}

struct LatencySamples {
  Samples reads;
  Samples writes;
  double read_rounds_mode{0};  // latency / one-way delay, fixed-delay runs
};

/// Quiescent workload: alternating writes and reads, nothing concurrent.
/// With delay_lo == delay_hi the read latency divided by the delay is the
/// protocol's exact round count.
inline LatencySamples run_quiescent(ProtocolVariant protocol, size_t n, size_t f,
                                    size_t ops, uint64_t seed, TimeNs delay_lo,
                                    TimeNs delay_hi, size_t value_size = 64) {
  harness::SimCluster cluster(
      make_options(protocol, n, f, seed, delay_lo, delay_hi));
  LatencySamples out;
  for (size_t i = 0; i < ops; ++i) {
    const auto w = cluster.write(0, workload::make_value(seed, i, value_size));
    out.writes.add(static_cast<double>(w.completed_at - w.invoked_at));
    const auto r = cluster.read(0);
    out.reads.add(static_cast<double>(r.completed_at - r.invoked_at));
  }
  if (delay_lo == delay_hi && delay_lo > 0) {
    out.read_rounds_mode = out.reads.median() / (2.0 * static_cast<double>(delay_lo));
  }
  return out;
}

/// Reads racing an in-flight write. The read is launched `offset` after
/// the write starts, so by sweeping the offset a caller can hit every
/// phase of the write's dissemination (get-tag, put-data in flight,
/// servers split old/new) and find the protocol's worst read-arrival
/// phase.
inline LatencySamples run_contended(ProtocolVariant protocol, size_t n, size_t f,
                                    size_t ops, uint64_t seed, TimeNs delay_lo,
                                    TimeNs delay_hi, TimeNs offset,
                                    size_t value_size = 64) {
  harness::SimCluster cluster(
      make_options(protocol, n, f, seed, delay_lo, delay_hi));
  LatencySamples out;
  uint64_t counter = 0;
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t wid =
        cluster.start_write(0, workload::make_value(seed, counter++, value_size));
    cluster.sim().run_until_time(cluster.sim().now() + offset);
    const uint64_t rid = cluster.start_read(0);
    cluster.await(rid);
    const auto& r = cluster.read_result(rid);
    out.reads.add(static_cast<double>(r.completed_at - r.invoked_at));
    cluster.await(wid);
    const auto& w = cluster.write_result(wid);
    out.writes.add(static_cast<double>(w.completed_at - w.invoked_at));
  }
  return out;
}

/// Worst-phase contended read latency: sweeps the read's arrival offset
/// across the whole write (0..8 mean one-way delays) and returns the
/// samples of the worst offset by median.
inline LatencySamples run_contended_worst(ProtocolVariant protocol, size_t n,
                                          size_t f, size_t ops_per_offset,
                                          uint64_t seed, TimeNs delay_lo,
                                          TimeNs delay_hi) {
  const TimeNs mean = (delay_lo + delay_hi) / 2;
  LatencySamples worst;
  for (int phase = 0; phase <= 16; ++phase) {
    auto s = run_contended(protocol, n, f, ops_per_offset, seed + phase,
                           delay_lo, delay_hi, mean * phase / 2);
    if (worst.reads.count() == 0 || s.reads.median() > worst.reads.median()) {
      worst = std::move(s);
    }
  }
  return worst;
}

inline std::string fmt_us(double ns) { return TextTable::fmt(ns / 1000.0, 1); }

}  // namespace bftreg::bench
