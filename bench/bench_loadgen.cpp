// Open-loop client-fleet load generator: thousands of concurrent
// RegisterClients against one register server over the event-loop TCP
// transport.
//
//   bench_loadgen                 connections-vs-throughput/latency curve
//   bench_loadgen --json=PATH     machine-readable snapshot (rows keyed
//                                 "transport=loadgen/size=S/fanin=N",
//                                 gated against BENCH_transport.json)
//                 [--quick]       small fleets (256, 1024) for CI
//                 [--seed=N]      zipfian/workload seed
//                 [--duration=S]  measurement window per point
//
// Open-loop means arrivals do not wait for completions: operation i's
// *intended* start time is t0 + i/rate on a fixed schedule, and latency is
// measured from that intended start -- not from when the dispatcher got
// around to issuing it. A transport that stalls therefore accumulates the
// stall into every queued operation's latency instead of silently slowing
// the arrival clock (coordinated omission). Closed-loop benches
// (bench_transport's credit windows) can't see this failure mode.
//
// Topology: one RegisterServer (n = 1, f = 0 -- the resilience bound is
// bench_resilience_bounds' job; here the server is deliberately trivial so
// the transport is the bottleneck) and `fanin` RegisterClients registered
// listen-less, so each client costs one duplex socket pair and no
// listener. Keys are zipfian (theta 0.99, YCSB's default skew) over 64
// registers; a single writer mutates the hot keys at 1% of the read rate,
// honoring the paper's SWMR model. Every client op carries a deadline
// (OpOptions) so a shed frame surfaces as result.timed_out, never a hang.
//
// Each row (bench::write_rows) carries msgs_per_sec/mbps as floors, which
// tools/bench_regress gates (>20% drop fails CI), and p50_us/p99_us as
// info, recorded but never gated -- wall-clock latency on shared CI hosts
// is information, not a contract.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "registers/registers.h"
#include "socknet/tcp_network.h"
#include "workload.h"
#include "workload/workload.h"

namespace bftreg::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kObjects = 64;
constexpr size_t kValueSize = 128;
constexpr double kZipfTheta = 0.99;
/// The paper's motivating mix (99% reads) as a YCSB point: zipfian keys,
/// a 1% single-writer update stream (bench/workload.h owns the kinds).
constexpr YcsbMix kLoadgenMix{"loadgen", 0.99, 0.01, 0.0};

/// Raises RLIMIT_NOFILE's soft limit to the hard limit and returns it.
/// Each client costs two descriptors (both connection ends live in this
/// process), so the fleet curve is clamped by what the kernel grants.
size_t raise_fd_limit() {
  struct rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  rl.rlim_cur = rl.rlim_max;
  (void)setrlimit(RLIMIT_NOFILE, &rl);
  (void)getrlimit(RLIMIT_NOFILE, &rl);
  return static_cast<size_t>(rl.rlim_cur);
}

/// Completion sink shared by every in-flight operation of one point.
struct Collector {
  std::mutex mu;
  Samples latency_us;  // from *intended* start, GUARDED_BY(mu) by hand
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> timed_out{0};

  void record(Clock::time_point intended, bool timeout) {
    const double us = std::chrono::duration<double, std::micro>(
                          Clock::now() - intended)
                          .count();
    {
      std::lock_guard<std::mutex> lock(mu);
      latency_us.add(us);
    }
    (timeout ? timed_out : ok).fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t done() const { return ok.load() + timed_out.load(); }
};

struct PointResult {
  uint64_t issued{0};
  uint64_t completed{0};
  uint64_t timed_out{0};
  double msgs_per_sec{0};
  double mbps{0};
  double p50_us{0};
  double p99_us{0};
};

PointResult run_point(size_t fleet, double rate, double duration_s,
                      uint64_t seed) {
  socknet::TcpNetwork net(socknet::TcpConfig{});

  const auto built =
      registers::SystemConfig::builder().n(1).f(0).build_for_bsr();
  const registers::SystemConfig cfg = built.value();

  registers::RegisterServer server(ProcessId::server(0), cfg, &net,
                                   workload::make_value(seed, 0, kValueSize));
  net.add_process(ProcessId::server(0), &server);

  // Every op carries a deadline: one retry, then complete as timed_out.
  // Shed frames (bounded outbox) thus show up in the timeout column.
  registers::ClientOptions copts;
  copts.retry.timeout = 500'000'000;  // 500 ms per attempt
  copts.retry.max_retries = 1;

  std::deque<registers::RegisterClient> clients;
  for (size_t i = 0; i < fleet; ++i) {
    const ProcessId pid = ProcessId::reader(static_cast<uint32_t>(i));
    clients.emplace_back(pid, cfg, &net, copts);
    net.add_process(pid, &clients.back(), /*listen=*/false);
  }
  registers::RegisterClient writer(ProcessId::writer(0), cfg, &net, copts);
  net.add_process(writer.id(), &writer, /*listen=*/false);
  net.start();

  // Warmup: one read per client, issued in bursts, so every connection is
  // dialed and adopted before the measured window opens.
  std::atomic<uint64_t> warm{0};
  for (size_t i = 0; i < fleet; ++i) {
    registers::RegisterClient* c = &clients[i];
    net.post(c->id(), [c, &warm] {
      c->read(0, [&warm](const registers::ReadResult&) {
        warm.fetch_add(1, std::memory_order_relaxed);
      });
    });
    if (i % 512 == 511) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const auto warm_deadline = Clock::now() + std::chrono::seconds(60);
  while (warm.load() < fleet && Clock::now() < warm_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  YcsbWorkload mix(kLoadgenMix, KeyDist::kZipfian, kObjects, seed, kZipfTheta);
  Collector collector;
  uint64_t issued = 0;
  uint64_t writes = 0;

  const auto t0 = Clock::now();
  const auto t_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(duration_s));
  while (true) {
    const auto intended =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(issued) /
                                               rate));
    if (intended >= t_end) break;
    std::this_thread::sleep_until(intended);  // no-op once we fall behind

    const YcsbOp op = mix.next();
    const auto key = static_cast<uint32_t>(op.key);
    if (op.kind == YcsbOpKind::kUpdate) {
      // SWMR value churn on the zipfian keys, 1% of the op budget.
      net.post(writer.id(), [&writer, &collector, key, intended, seed,
                             w = writes++] {
        writer.write(key, workload::make_value(seed, w + 1, kValueSize),
                     [&collector, intended](const registers::WriteResult& r) {
                       collector.record(intended, r.timed_out);
                     });
      });
    } else {
      registers::RegisterClient* c = &clients[issued % fleet];
      net.post(c->id(), [c, &collector, key, intended] {
        c->read(key, [&collector, intended](const registers::ReadResult& r) {
          collector.record(intended, r.timed_out);
        });
      });
    }
    ++issued;
  }

  // Grace: deadlines guarantee every op resolves within ~1.5 s (two 500 ms
  // attempts plus slack); whatever is still missing after that is counted
  // as timed out by subtraction.
  const auto grace = Clock::now() + std::chrono::seconds(3);
  while (collector.done() < issued && Clock::now() < grace) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  net.stop();

  PointResult out;
  out.issued = issued;
  out.completed = collector.ok.load();
  out.timed_out = issued - out.completed;
  out.msgs_per_sec = static_cast<double>(out.completed) / secs;
  out.mbps = static_cast<double>(out.completed) * kValueSize /
             (secs * 1024.0 * 1024.0);
  std::lock_guard<std::mutex> lock(collector.mu);
  out.p50_us = collector.latency_us.median();
  out.p99_us = collector.latency_us.p99();
  return out;
}

int run_curve(const BenchArgs& args) {
  const size_t fd_limit = raise_fd_limit();
  std::vector<size_t> fleets = args.quick
                                   ? std::vector<size_t>{256, 1024}
                                   : std::vector<size_t>{1000, 2500, 5000, 8000};
  const double rate = args.quick ? 1000.0 : 2000.0;
  const double duration_s =
      args.duration_s > 0 ? args.duration_s : (args.quick ? 2.0 : 5.0);

  // Throwaway point: the first network of the process pays one-time costs
  // (allocator growth, page faults, scheduler warm-up) that show up as a
  // milliseconds-scale p99 on whatever point runs first. Burn them here so
  // the recorded curve measures the steady state.
  (void)run_point(/*fleet=*/64, /*rate=*/500.0, /*duration_s=*/0.5, args.seed);

  std::fprintf(stderr, "%-8s %10s %12s %10s %10s %10s\n", "clients", "issued",
               "msgs/s", "p50 us", "p99 us", "timeouts");
  std::vector<BenchRow> rows;
  int failures = 0;
  for (const size_t fleet : fleets) {
    // Two fds per client (both connection ends are in-process) plus loop,
    // listener, and wake descriptors.
    if (2 * fleet + 64 > fd_limit) {
      std::fprintf(stderr,
                   "%-8zu SKIPPED: needs %zu fds, RLIMIT_NOFILE grants %zu\n",
                   fleet, 2 * fleet + 64, fd_limit);
      continue;
    }
    const PointResult r = run_point(fleet, rate, duration_s, args.seed);
    // An unfinished curve point is a transport failure, not noise: with
    // deadlines on every op, >10% losses means the data plane collapsed.
    if (r.completed < r.issued - r.issued / 10) ++failures;
    std::fprintf(stderr, "%-8zu %10llu %12.0f %10.0f %10.0f %10llu\n", fleet,
                 static_cast<unsigned long long>(r.issued), r.msgs_per_sec,
                 r.p50_us, r.p99_us,
                 static_cast<unsigned long long>(r.timed_out));
    rows.push_back({.key = "transport=loadgen/size=" + std::to_string(kValueSize) +
                           "/fanin=" + std::to_string(fleet),
                    .floor = {{"msgs_per_sec", r.msgs_per_sec}, {"mbps", r.mbps}},
                    .info = {{"p50_us", r.p50_us}, {"p99_us", r.p99_us}}});
  }
  if (!args.json_path.empty() && !write_rows(args.json_path, args.quick, rows)) {
    return 1;
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace bftreg::bench

int main(int argc, char** argv) {
  const auto args = bftreg::bench::BenchArgs::parse(argc, argv);
  if (!args) return 2;
  return bftreg::bench::run_curve(*args);
}
