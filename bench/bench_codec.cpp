// E8 -- codec feasibility (Section IV-A): throughput of the [n, k] MDS
// code with k = n - 5f and Berlekamp-Welch error decoding.
//
// Two modes:
//
//  * default: google-benchmark microbenchmarks -- encode, erasure-only
//    decode (bulk interpolation path), and decode under the full Lemma 4
//    error budget (f Byzantine-garbage + f stale elements). Each run is
//    labeled with the active gf_region kernel (override via the
//    BFTREG_GF_KERNEL env var). Expected shape: encode/decode scale
//    linearly in value size; error decoding costs a small constant factor
//    over the clean path thanks to chunked verify-then-materialize.
//
//  * `bench_codec --json=PATH [--quick]`: skips google-benchmark and writes
//    one row per (n, f, size, kernel), iterating over every region kernel
//    the host supports, with encode / decode-clean / decode-adversarial MB/s
//    as floor metrics (bench::write_rows). CI diffs the file against the
//    checked-in BENCH_codec.json baseline with tools/bench_regress (fails on
//    > 20% regression). `--quick` shortens the per-point measurement window.
//    Flags other than BenchArgs' own go to google-benchmark.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codec/gf_region.h"
#include "codec/mds_code.h"
#include "common/rng.h"
#include "workload/workload.h"

using namespace bftreg;

namespace {

void bm_encode(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t f = static_cast<size_t>(state.range(1));
  const size_t size = static_cast<size_t>(state.range(2));
  const auto code = codec::MdsCode::for_bcsr(n, f);
  const Bytes value = workload::make_value(1, 0, size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(value));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
  state.counters["k"] = static_cast<double>(code.k());
  state.SetLabel(codec::gf::kernel_name(codec::gf::active_kernel()));
}

void bm_decode_clean(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t f = static_cast<size_t>(state.range(1));
  const size_t size = static_cast<size_t>(state.range(2));
  const auto code = codec::MdsCode::for_bcsr(n, f);
  const Bytes value = workload::make_value(1, 0, size);
  const auto elements = code.encode(value);
  std::vector<std::optional<Bytes>> received(n);
  for (size_t i = 0; i < n - f; ++i) received[i] = elements[i];  // f erasures
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(received));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
  state.SetLabel(codec::gf::kernel_name(codec::gf::active_kernel()));
}

/// The Lemma 4 worst case: f garbage + f stale among n - f received.
std::vector<std::optional<Bytes>> adversarial_responses(
    const codec::MdsCode& code, const Bytes& value, const Bytes& old_value) {
  const size_t n = code.n();
  const size_t f = (n - code.k()) / 5;
  const auto elements = code.encode(value);
  const auto old_elements = code.encode(old_value);
  Rng rng(7);
  std::vector<std::optional<Bytes>> received(n);
  for (size_t i = 0; i < n - f; ++i) received[i] = elements[i];
  for (size_t i = 0; i < f; ++i) {
    Bytes junk(elements[i].size());  // garbage of the right size
    for (auto& b : junk) b = static_cast<uint8_t>(rng.uniform(256));
    received[i] = junk;
    received[f + i] = old_elements[f + i];  // stale
  }
  return received;
}

void bm_decode_adversarial(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t f = static_cast<size_t>(state.range(1));
  const size_t size = static_cast<size_t>(state.range(2));
  const auto code = codec::MdsCode::for_bcsr(n, f);
  const Bytes value = workload::make_value(1, 0, size);
  const Bytes old_value = workload::make_value(1, 1, size);
  const auto received = adversarial_responses(code, value, old_value);
  for (auto _ : state) {
    auto out = code.decode(received);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
  state.SetLabel(codec::gf::kernel_name(codec::gf::active_kernel()));
}

void codec_args(benchmark::internal::Benchmark* b) {
  for (int64_t size : {1 << 10, 16 << 10, 256 << 10}) {
    b->Args({6, 1, size});    // n = 5f+1, k = 1 (worst storage ratio)
    b->Args({11, 1, size});   // k = 6
    b->Args({16, 2, size});   // k = 6, f = 2
    b->Args({21, 3, size});   // k = 6, f = 3
  }
}

BENCHMARK(bm_encode)->Apply(codec_args)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_decode_clean)->Apply(codec_args)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_decode_adversarial)->Apply(codec_args)->Unit(benchmark::kMicrosecond);

// ------------------------------------------------------------- JSON mode

/// MB/s of `fn` (which processes `bytes` per call), measured by running it
/// in batches until the window elapses and keeping the best batch rate.
template <typename Fn>
double measure_mbps(size_t bytes, double window_seconds, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  // Calibrate a batch size of roughly 10ms.
  size_t batch = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (size_t i = 0; i < batch; ++i) fn();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    if (dt >= 0.01 || batch >= (1u << 20)) break;
    batch *= 4;
  }
  double best = 0.0;
  const auto deadline = clock::now() + std::chrono::duration<double>(window_seconds);
  do {
    const auto t0 = clock::now();
    for (size_t i = 0; i < batch; ++i) fn();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    const double mbps =
        static_cast<double>(batch * bytes) / (dt * 1024.0 * 1024.0);
    if (mbps > best) best = mbps;
  } while (clock::now() < deadline);
  return best;
}

struct JsonConfig {
  size_t n;
  size_t f;
  size_t size;
};

int run_json_mode(const bench::BenchArgs& args) {
  // (n, f, size) grid; (11, 2, 64 KiB) is the acceptance configuration.
  const JsonConfig configs[] = {
      {6, 1, 65536},  {11, 1, 65536},   {11, 2, 65536},
      {16, 2, 65536}, {11, 2, 1 << 20}, {21, 3, 262144},
  };
  const double window = args.quick ? 0.06 : 0.5;

  std::vector<bench::BenchRow> rows;
  for (const auto k :
       {codec::gf::RegionKernel::kScalar, codec::gf::RegionKernel::kSwar,
        codec::gf::RegionKernel::kSsse3, codec::gf::RegionKernel::kAvx2}) {
    if (!codec::gf::kernel_available(k)) continue;
    codec::gf::force_kernel(k);
    for (const auto& cfg : configs) {
      const auto code = codec::MdsCode::for_bcsr(cfg.n, cfg.f);
      const Bytes value = workload::make_value(1, 0, cfg.size);
      const Bytes old_value = workload::make_value(1, 1, cfg.size);
      const auto clean = [&] {
        auto r = code.encode(value);
        std::vector<std::optional<Bytes>> received(cfg.n);
        for (size_t i = 0; i < cfg.n - cfg.f; ++i) received[i] = std::move(r[i]);
        return received;
      }();
      const auto adv = adversarial_responses(code, value, old_value);

      const double enc = measure_mbps(cfg.size, window,
                                      [&] { benchmark::DoNotOptimize(code.encode(value)); });
      const double dec_clean = measure_mbps(cfg.size, window,
                                            [&] { benchmark::DoNotOptimize(code.decode(clean)); });
      const double dec_adv = measure_mbps(cfg.size, window,
                                          [&] { benchmark::DoNotOptimize(code.decode(adv)); });

      rows.push_back({.key = "n=" + std::to_string(cfg.n) +
                             "/f=" + std::to_string(cfg.f) +
                             "/size=" + std::to_string(cfg.size) +
                             "/kernel=" + codec::gf::kernel_name(k),
                      .floor = {{"encode_mbps", enc},
                                {"decode_clean_mbps", dec_clean},
                                {"decode_adv_mbps", dec_adv}}});
      std::fprintf(stderr, "  %-6s n=%2zu f=%zu size=%7zu  enc %8.1f  clean %8.1f  adv %8.1f MB/s\n",
                   codec::gf::kernel_name(k), cfg.n, cfg.f, cfg.size, enc,
                   dec_clean, dec_adv);
    }
  }
  codec::gf::reset_kernel();
  return bench::write_rows(args.json_path, args.quick, rows) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Flags BenchArgs does not know go to Google Benchmark.
  std::vector<char*> passthrough = {argv[0]};
  const auto args =
      bench::BenchArgs::parse(argc, argv, "", [&passthrough](const char* a) {
        passthrough.push_back(const_cast<char*>(a));
        return true;
      });
  if (!args) return 2;
  if (!args->json_path.empty()) return run_json_mode(*args);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
