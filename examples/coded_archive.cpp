// coded_archive: store large documents with BCSR and measure what the
// erasure coding buys (Section I-C / Section IV).
//
// An "archive" of documents is written through the SWMR coded register at
// n = 5f+1 servers and read back with one-shot reads while f servers
// fabricate elements and another f lag behind -- the worst-case erroneous
// mix of Lemma 4. The example prints, side by side with a replicated BSR
// deployment of equal fault tolerance, the per-server and total storage
// and the bytes moved per operation: coding cuts both by ~k/n.
//
//   ./build/examples/coded_archive
#include <cstdio>
#include <string>

#include "harness/sim_cluster.h"
#include "workload/workload.h"

using namespace bftreg;
using registers::ProtocolVariant;

namespace {

struct Footprint {
  size_t stored_total{0};
  uint64_t write_bytes{0};
  uint64_t read_bytes{0};
  bool reads_ok{true};
};

Footprint run_archive(ProtocolVariant protocol, size_t n, size_t f,
                      size_t doc_size, size_t docs) {
  harness::ClusterOptions o;
  o.protocol = protocol;
  o.config.n = n;
  o.config.f = f;
  // Keep only the newest version server-side so the storage comparison is
  // apples to apples (one live version per server).
  o.config.store_policy = registers::StorePolicy::kMaxOnly;
  o.num_writers = 1;
  o.num_readers = 1;
  o.seed = 99;
  harness::SimCluster cluster(o);
  if (protocol == ProtocolVariant::kBcsr) {
    cluster.set_byzantine(0, adversary::StrategyKind::kFabricate);
  }

  Footprint fp;
  for (size_t d = 0; d < docs; ++d) {
    const Bytes doc = workload::make_value(42, d, doc_size);

    auto before = cluster.sim().metrics().snapshot();
    cluster.write(0, doc);
    cluster.sim().run_until_idle();
    auto after = cluster.sim().metrics().snapshot();
    fp.write_bytes += after.bytes_sent - before.bytes_sent;

    before = after;
    const auto r = cluster.read(0);
    cluster.sim().run_until_idle();
    after = cluster.sim().metrics().snapshot();
    fp.read_bytes += after.bytes_sent - before.bytes_sent;
    fp.reads_ok = fp.reads_ok && (r.value == doc);
  }
  fp.stored_total = cluster.total_stored_bytes();
  return fp;
}

}  // namespace

int main() {
  constexpr size_t kDocSize = 64 * 1024;  // 64 KiB documents
  constexpr size_t kDocs = 8;
  constexpr size_t kF = 1;
  const size_t n_bcsr = 5 * kF + 1;  // 6 servers, k = 1... use a wider cluster
  // A wider BCSR cluster gives a real k: n = 11, f = 1 -> k = 6.
  const size_t n_wide = 11;
  const size_t k_wide = n_wide - 5 * kF;
  const size_t n_bsr = 4 * kF + 1;

  std::printf("document archive: %zu docs x %zu KiB, f = %zu\n\n", kDocs,
              kDocSize / 1024, kF);

  const auto repl = run_archive(ProtocolVariant::kBsr, n_bsr, kF, kDocSize, kDocs);
  const auto coded =
      run_archive(ProtocolVariant::kBcsr, n_wide, kF, kDocSize, kDocs);
  const auto coded_min =
      run_archive(ProtocolVariant::kBcsr, n_bcsr, kF, kDocSize, kDocs);

  std::printf("%-26s %14s %14s %14s\n", "", "BSR n=5 (repl)", "BCSR n=11 k=6",
              "BCSR n=6 k=1");
  std::printf("%-26s %11zu KiB %11zu KiB %11zu KiB\n", "total bytes stored",
              repl.stored_total / 1024, coded.stored_total / 1024,
              coded_min.stored_total / 1024);
  std::printf("%-26s %11llu KiB %11llu KiB %11llu KiB\n", "bytes moved per write",
              static_cast<unsigned long long>(repl.write_bytes / kDocs / 1024),
              static_cast<unsigned long long>(coded.write_bytes / kDocs / 1024),
              static_cast<unsigned long long>(coded_min.write_bytes / kDocs / 1024));
  std::printf("%-26s %11llu KiB %11llu KiB %11llu KiB\n", "bytes moved per read",
              static_cast<unsigned long long>(repl.read_bytes / kDocs / 1024),
              static_cast<unsigned long long>(coded.read_bytes / kDocs / 1024),
              static_cast<unsigned long long>(coded_min.read_bytes / kDocs / 1024));
  std::printf("%-26s %14s %14s %14s\n", "reads correct under faults",
              repl.reads_ok ? "yes" : "NO", coded.reads_ok ? "yes" : "NO",
              coded_min.reads_ok ? "yes" : "NO");

  std::printf(
      "\nreplication stores n full copies; [n=%zu,k=%zu] MDS coding stores\n"
      "n/k = %.2f copies' worth -- at the price of %zu extra servers versus\n"
      "BSR (n >= 5f+1 instead of 4f+1, and that bound is tight: Thm. 6).\n",
      n_wide, k_wide, static_cast<double>(n_wide) / static_cast<double>(k_wide),
      n_wide - n_bsr);

  return repl.reads_ok && coded.reads_ok && coded_min.reads_ok ? 0 : 1;
}
