// E4 -- storage and communication cost of coding vs replication (paper
// claims: Section I-C "the total storage cost across the n servers is n/k
// units", same for bandwidth).
//
// Expected shape: BCSR's measured storage and per-op bytes approach
// (n/k) x value_size while BSR's are n x value_size, with the per-element
// overhead (header + tags) fading as values grow.
#include "bench_util.h"
#include "codec/gf_region.h"

using namespace bftreg;
using namespace bftreg::bench;

namespace {

struct CostRow {
  size_t stored;
  uint64_t write_bytes;
  uint64_t read_bytes;
};

CostRow run_cost(ProtocolVariant protocol, size_t n, size_t f,
                 size_t value_size) {
  auto options = make_options(protocol, n, f, 11, 500, 1500);
  options.config.store_policy = registers::StorePolicy::kMaxOnly;
  harness::SimCluster cluster(options);

  CostRow row{};
  constexpr size_t kOps = 4;
  for (size_t i = 0; i < kOps; ++i) {
    auto before = cluster.sim().metrics().snapshot();
    cluster.write(0, workload::make_value(3, i, value_size));
    cluster.sim().run_until_idle();
    auto after = cluster.sim().metrics().snapshot();
    row.write_bytes += (after.bytes_sent - before.bytes_sent) / kOps;

    before = after;
    cluster.read(0);
    cluster.sim().run_until_idle();
    after = cluster.sim().metrics().snapshot();
    row.read_bytes += (after.bytes_sent - before.bytes_sent) / kOps;
  }
  // kMaxOnly still accretes monotonically increasing tags; normalize to
  // per-version storage by dividing across the written versions.
  row.stored = cluster.total_stored_bytes() / kOps;
  return row;
}

}  // namespace

int main() {
  std::printf("E4: storage & communication cost, replication vs MDS coding\n");
  std::printf("f = 1; BSR n = 5; BCSR n = 11 => k = n-5f = 6, n/k = 1.83\n");
  // The cost ratios are kernel-independent, but wall-clock is not; record
  // which gf_region kernel encoded the BCSR elements for reproducibility.
  std::printf("codec kernel: %s\n\n",
              codec::gf::kernel_name(codec::gf::active_kernel()));

  TextTable table({"value size", "protocol", "stored/version", "norm (x value)",
                   "write bytes", "read bytes", "theory"});
  for (const size_t size : {size_t{1} << 10, size_t{16} << 10, size_t{256} << 10,
                            size_t{1} << 20}) {
    const auto bsr = run_cost(ProtocolVariant::kBsr, 5, 1, size);
    const auto bcsr = run_cost(ProtocolVariant::kBcsr, 11, 1, size);
    const double v = static_cast<double>(size);
    table.add_row({std::to_string(size >> 10) + " KiB", "BSR n=5",
                   std::to_string(bsr.stored),
                   TextTable::fmt(static_cast<double>(bsr.stored) / v, 2),
                   std::to_string(bsr.write_bytes), std::to_string(bsr.read_bytes),
                   "n = 5.00"});
    table.add_row({std::to_string(size >> 10) + " KiB", "BCSR n=11 k=6",
                   std::to_string(bcsr.stored),
                   TextTable::fmt(static_cast<double>(bcsr.stored) / v, 2),
                   std::to_string(bcsr.write_bytes), std::to_string(bcsr.read_bytes),
                   "n/k = 1.83"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "shape check: BSR stores/ships ~n copies of the value; BCSR converges\n"
      "to the paper's n/k units as values grow (header overhead amortizes).\n"
      "Coding buys this with 6 extra servers -- and Theorem 6 shows those\n"
      "servers are necessary for one-shot coded reads.\n");
  return 0;
}
