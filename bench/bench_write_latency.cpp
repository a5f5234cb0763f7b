// E2 -- write latency (paper claims: Fig. 1 two-phase writes; Section I-B
// RB tax on the baseline).
//
// Claim reproduced: BSR/BCSR writes are exactly two rounds (4 one-way
// delays); the RB-based write pays get-tag (2d) + PUT + ECHO + READY + ACK
// = 6d -- the 1.5x blowup the paper attributes to reliable broadcast.
#include "bench_util.h"

using namespace bftreg;
using namespace bftreg::bench;

int main() {
  std::printf("E2: write latency\n");
  std::printf("fixed one-way delay = 1000 ns; BSR write = 2 rounds = 4000 ns\n\n");

  const struct {
    ProtocolVariant protocol;
    size_t f;
  } rows[] = {
      {ProtocolVariant::kBsr, 1},  {ProtocolVariant::kBsr, 2},
      {ProtocolVariant::kBsr, 3},  {ProtocolVariant::kBcsr, 1},
      {ProtocolVariant::kBcsr, 2}, {ProtocolVariant::kBsrHistory, 1},
      {ProtocolVariant::kBsrTwoRound, 1},
      {ProtocolVariant::kRb, 1},   {ProtocolVariant::kRb, 2},
      {ProtocolVariant::kRb, 3},
  };

  TextTable table({"protocol", "n", "f", "write delays (fixed d)",
                   "random med (us)", "random p99 (us)", "vs BSR"});
  double bsr_fixed = 0;
  for (const auto& row : rows) {
    const size_t n = registers::min_servers(row.protocol, row.f);
    const auto fixed = run_quiescent(row.protocol, n, row.f, 50, 1, 1000, 1000);
    const auto rnd = run_quiescent(row.protocol, n, row.f, 200, 2, 500, 1500);
    const double delays = fixed.writes.median() / 1000.0;  // one-way units
    if (row.protocol == ProtocolVariant::kBsr && row.f == 1) bsr_fixed = delays;
    table.add_row({to_string(row.protocol), std::to_string(n),
                   std::to_string(row.f), TextTable::fmt(delays, 1),
                   fmt_us(rnd.writes.median()), fmt_us(rnd.writes.p99()),
                   TextTable::fmt(bsr_fixed > 0 ? delays / bsr_fixed : 0, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "shape check: BSR and BCSR writes cost 4 one-way delays (two rounds) at\n"
      "every f; the RB baseline costs 6 (1.50x) -- the Section I-B claim that\n"
      "per-message RB use blows latency up by 1.5x.\n");
  return 0;
}
