// E3 -- mixed read/write workloads (paper claim: Section I + footnote 1,
// "read requests form around 99.8% of all operations", so making reads
// cheaper than writes is the right trade).
//
// Closed-loop clients (each issues its next op when the previous completes)
// run mixes from write-heavy to the TAO mix over each protocol; we report
// virtual-time throughput and mean operation latency. Expected shape: the
// semi-fast protocols' advantage over both the two-round variant and the RB
// baseline grows with the read ratio, and is largest at 99.8% reads.
//
// Pipelined mode (always printed; `--json=PATH` additionally writes one
// row per depth with ops_per_ms as a floor, which tools/bench_regress
// diffs against the checked-in BENCH_client.json): ONE RegisterClient
// keeps an in-flight window of 1 / 8 / 64 operations over 8 objects.
// Per-operation latency is delay-bound and constant, so throughput should
// scale almost linearly with the window -- the measured speedup of depth
// 64 over depth 1 is the operation multiplexer's headline number.
#include <functional>

#include "bench_util.h"
#include "registers/registers.h"
#include "sim/simulator.h"

using namespace bftreg;
using namespace bftreg::bench;

namespace {

struct MixResult {
  double ops_per_ms{0};
  double mean_read_us{0};
  double mean_write_us{0};
};

MixResult run_mix(ProtocolVariant protocol, size_t f, double read_ratio,
                  size_t total_ops, uint64_t seed) {
  const size_t n = registers::min_servers(protocol, f);
  auto options = make_options(protocol, n, f, seed, 500, 1500);
  options.num_writers = 2;
  options.num_readers = 2;
  harness::SimCluster cluster(options);

  workload::WorkloadOptions wo;
  wo.read_ratio = read_ratio;
  wo.num_ops = total_ops;
  wo.value_size = 64;
  wo.seed = seed;
  workload::WorkloadGenerator gen(wo);

  // Four closed-loop clients (2 writers, 2 readers); reads and writes are
  // drawn from the mix and dispatched to an idle client of the right kind.
  std::vector<std::optional<uint64_t>> wop(2), rop(2);
  Samples read_lat, write_lat;
  const TimeNs start = cluster.sim().now();

  auto reap = [&](std::vector<std::optional<uint64_t>>& slots, Samples& lat,
                  bool is_read) {
    for (auto& s : slots) {
      if (s && cluster.op_done(*s)) {
        if (is_read) {
          const auto& r = cluster.read_result(*s);
          lat.add(static_cast<double>(r.completed_at - r.invoked_at));
        } else {
          const auto& w = cluster.write_result(*s);
          lat.add(static_cast<double>(w.completed_at - w.invoked_at));
        }
        s.reset();
      }
    }
  };

  std::optional<workload::Op> queued;
  while (!gen.done() || queued) {
    reap(wop, write_lat, false);
    reap(rop, read_lat, true);
    if (!queued && !gen.done()) queued = gen.next();
    if (queued) {
      auto& slots = queued->is_read ? rop : wop;
      for (size_t c = 0; c < slots.size() && queued; ++c) {
        if (!slots[c]) {
          if (queued->is_read) {
            slots[c] = cluster.start_read(c);
          } else {
            slots[c] = cluster.start_write(c, std::move(queued->value));
          }
          queued.reset();
        }
      }
    }
    if (!cluster.sim().step()) break;  // drive one event at a time
  }
  for (auto& s : wop) {
    if (s) cluster.await(*s);
  }
  for (auto& s : rop) {
    if (s) cluster.await(*s);
  }
  reap(wop, write_lat, false);
  reap(rop, read_lat, true);

  MixResult out;
  const double elapsed_ms =
      static_cast<double>(cluster.sim().now() - start) / 1'000'000.0;
  out.ops_per_ms = elapsed_ms > 0 ? static_cast<double>(total_ops) / elapsed_ms : 0;
  out.mean_read_us = read_lat.mean() / 1000.0;
  out.mean_write_us = write_lat.mean() / 1000.0;
  return out;
}

struct PipelinedResult {
  double ops_per_ms{0};
  double mean_op_us{0};
};

/// One RegisterClient holding `depth` operations in flight (closed loop:
/// every completion immediately issues the next op) against 5 BSR servers,
/// 90% reads, round-robin over 8 objects.
PipelinedResult run_pipelined(size_t depth, size_t total_ops, uint64_t seed) {
  const auto config =
      registers::SystemConfig::builder().n(5).f(1).build_for_bsr().value();
  sim::Simulator sim(sim::SimConfig::with_uniform_delay(seed, 500, 1500));
  std::vector<std::unique_ptr<registers::RegisterServer>> servers;
  for (uint32_t i = 0; i < config.n; ++i) {
    servers.push_back(std::make_unique<registers::RegisterServer>(
        ProcessId::server(i), config, &sim, Bytes{}));
    sim.add_process(ProcessId::server(i), servers.back().get());
  }
  registers::RegisterClient client(ProcessId::writer(0), config, &sim);
  sim.add_process(client.id(), &client);
  sim.start_all();

  constexpr uint32_t kObjects = 8;
  size_t issued = 0;
  size_t completed = 0;
  Samples latency;
  TimeNs start = 0;

  // Issues the next op of the mix; runs in the client's context, both for
  // the initial window and from completion callbacks.
  std::function<void()> issue_next = [&] {
    if (issued >= total_ops) return;
    const size_t i = issued++;
    const uint32_t object = static_cast<uint32_t>(i) % kObjects;
    if (i % 10 == 0) {
      client.write(object, workload::make_value(seed, i, 64),
                   [&](const registers::WriteResult& w) {
                     latency.add(static_cast<double>(w.completed_at - w.invoked_at));
                     ++completed;
                     issue_next();
                   });
    } else {
      client.read(object, [&](const registers::ReadResult& r) {
        latency.add(static_cast<double>(r.completed_at - r.invoked_at));
        ++completed;
        issue_next();
      });
    }
  };
  sim.post(client.id(), [&] {
    start = sim.now();
    for (size_t k = 0; k < depth; ++k) issue_next();
  });
  sim.run_until([&] { return completed == total_ops; });

  PipelinedResult out;
  const double elapsed_ms = static_cast<double>(sim.now() - start) / 1'000'000.0;
  out.ops_per_ms =
      elapsed_ms > 0 ? static_cast<double>(total_ops) / elapsed_ms : 0;
  out.mean_op_us = latency.mean() / 1000.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = BenchArgs::parse(argc, argv);
  if (!args) return 2;

  std::printf("E3: mixed workloads (closed loop, 2 writers + 2 readers)\n");
  std::printf("1000 ops per cell, uniform delay 500-1500 ns, f = 1\n\n");

  const double ratios[] = {0.5, 0.9, 0.998};
  const ProtocolVariant protocols[] = {
      ProtocolVariant::kBsr, ProtocolVariant::kBsrHistory,
      ProtocolVariant::kBsrTwoRound, ProtocolVariant::kBcsr, ProtocolVariant::kRb};

  TextTable table({"protocol", "read ratio", "ops/ms (virtual)", "mean read (us)",
                   "mean write (us)"});
  for (const auto protocol : protocols) {
    for (const double ratio : ratios) {
      const auto res = run_mix(protocol, 1, ratio, 1000, 7);
      table.add_row({to_string(protocol), TextTable::fmt(ratio, 3),
                     TextTable::fmt(res.ops_per_ms, 2),
                     TextTable::fmt(res.mean_read_us, 2),
                     TextTable::fmt(res.mean_write_us, 2)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "shape check: at 99.8%% reads, throughput tracks read cost almost\n"
      "exclusively -- the one-shot protocols (BSR, history, BCSR) beat the\n"
      "two-round reader, and the baseline's RB write tax stops mattering\n"
      "while its read path still lags under write interference.\n\n");

  // --- pipelined client: ops/sec vs in-flight depth ------------------------
  std::printf(
      "pipelined client (ONE RegisterClient, BSR n=5 f=1, 90%% reads,\n"
      "8 objects, 2000 ops, closed-loop window of `depth` operations)\n\n");
  const size_t depths[] = {1, 8, 64};
  PipelinedResult results[3];
  TextTable ptable({"depth", "ops/ms (virtual)", "mean op (us)", "speedup vs 1"});
  for (size_t d = 0; d < 3; ++d) {
    results[d] = run_pipelined(depths[d], 2000, 7);
    ptable.add_row({std::to_string(depths[d]),
                    TextTable::fmt(results[d].ops_per_ms, 2),
                    TextTable::fmt(results[d].mean_op_us, 2),
                    TextTable::fmt(results[d].ops_per_ms / results[0].ops_per_ms, 2)});
  }
  std::printf("%s\n", ptable.render().c_str());
  std::printf(
      "shape check: per-op latency is delay-bound and does not grow with\n"
      "the window, so throughput scales with depth -- the multiplexer keeps\n"
      "64 quorums counting concurrently on one client.\n");

  if (!args->json_path.empty()) {
    std::vector<BenchRow> rows;
    for (size_t d = 0; d < 3; ++d) {
      rows.push_back(
          {.key = "protocol=bsr/depth=" + std::to_string(depths[d]),
           .floor = {{"ops_per_ms", results[d].ops_per_ms}},
           .info = {{"mean_op_us", results[d].mean_op_us},
                    {"speedup_vs_depth1",
                     results[d].ops_per_ms / results[0].ops_per_ms}}});
    }
    if (!write_rows(args->json_path, args->quick, rows)) return 1;
  }
  return 0;
}
