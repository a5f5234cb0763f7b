// Self-tests of the benchmark's own logic: percentile math, open-loop
// timing under a generator stall, transit matching by op id, the ledger's
// coverage ratio, and the fast safety checker against checker::check_safety.
// Runs before every benchmark run (quorumbench/run.py); exit 0 = all pass.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "checker/consistency.h"
#include "common/rng.h"
#include "open_loop.h"
#include "percentiles.h"
#include "registers/messages.h"
#include "safety.h"
#include "tracing.h"

namespace bftreg::qb {
namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<double> iota_sorted(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentiles() {
  const std::vector<double> v = iota_sorted(100);
  CHECK(percentile_sorted(v, 50) == 50);
  CHECK(percentile_sorted(v, 99) == 99);
  CHECK(percentile_sorted(v, 100) == 100);
  CHECK(percentile_sorted(v, 0) == 1);
  CHECK(percentile_sorted({}, 50) == 0);

  // The highest supported percentile leaves exactly ten samples after it.
  CHECK(highest_supported_percentile(10) == 0);
  CHECK(highest_supported_percentile(100) == 90);
  for (size_t n : {11u, 37u, 1000u, 25013u, 400000u}) {
    const std::vector<double> s = iota_sorted(n);
    const double p = highest_supported_percentile(n);
    CHECK(static_cast<double>(n) - percentile_sorted(s, p) == 10);
    CHECK(static_cast<double>(n) - percentile_sorted(s, p + 1e-6) < 10);
  }

  // A failed op misses every limit: it sorts last and owns the tail.
  std::vector<double> f(98, 1.0);
  f.push_back(kFailed);
  f.push_back(kFailed);
  CHECK(percentile_sorted(f, 98) == 1.0);
  CHECK(std::isinf(percentile_sorted(f, 99)));

  // Histogram percentiles agree with exact ones within a bucket (< 1%).
  LogHist h;
  for (uint64_t i = 1; i <= 100000; ++i) h.record(i * 10);
  CHECK(h.count() == 100000);
  CHECK(std::abs(h.percentile(50) - 500000) / 500000 < 0.01);
  CHECK(std::abs(h.percentile(99) - 990000) / 990000 < 0.01);
  CHECK(h.percentile(0) < 20);
  LogHist merged;
  merged.merge_from(h);
  merged.merge_from(h);
  CHECK(merged.count() == 200000);
  CHECK(merged.percentile(50) == h.percentile(50));
}

void test_stall_is_charged() {
  // 10k ops/s for 60 ms; op 10's issue stalls 20 ms. Ops completing the
  // instant they are issued have a latency (issue time - due time) that
  // shows the stall, and none of the ops due during it are skipped.
  constexpr double kRate = 10'000;
  const int64_t start = steady_ns() + 1'000'000;
  const int64_t end = start + 60'000'000;
  std::vector<int64_t> latency;
  const uint64_t issued = run_open_loop(
      kRate, start, end,
      [&](uint64_t i, int64_t due) {
        latency.push_back(steady_ns() - due);
        if (i == 10) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      },
      [] { return false; });
  CHECK(issued == 600);
  CHECK(latency.size() == 600);
  if (latency.size() < 600) return;
  // Op 11 was due 0.1 ms after op 10 and waited out the stall.
  CHECK(latency[11] >= 19'000'000);
  // Op 100 was due 9 ms after op 10: it is charged the remaining ~11 ms.
  CHECK(latency[100] >= 10'000'000);
  CHECK(latency[100] < latency[11]);
  // Issued back to back after the stall, the backlog clears and later
  // ops wait less again.
  CHECK(latency[550] < latency[100]);
}

void test_transit_matching() {
  registers::RegisterMessage m;
  m.type = registers::MsgType::kQueryData;
  m.op_id = 0x1122334455667788ULL;
  m.object = 7;
  const Bytes wire = m.encode();
  const WirePeek w = peek_wire(wire);
  CHECK(w.ok);
  CHECK(w.type == static_cast<uint8_t>(registers::MsgType::kQueryData));
  CHECK(w.op_id == 0x1122334455667788ULL);
  CHECK(!peek_wire(BytesView(wire.data(), 8)).ok);

  const ProcessId c = ProcessId::reader(0);
  const ProcessId s0 = ProcessId::server(0);
  const ProcessId s1 = ProcessId::server(1);
  TransitMatcher t;
  const uint8_t q = w.type;
  // Send then receive: the gap is the transit.
  t.on_send(TransitMatcher::key(c, s0, w), q, 1'000'000);
  t.on_receive(TransitMatcher::key(c, s0, w), q, 1'004'000);
  CHECK(t.by_type(q).count() == 1);
  CHECK(std::abs(t.by_type(q).percentile(50) - 4000) < 40);
  // Another destination, or the reply to the same op, is another message.
  t.on_send(TransitMatcher::key(c, s1, w), q, 2'000'000);
  WirePeek reply = w;
  reply.type = static_cast<uint8_t>(registers::MsgType::kDataResp);
  t.on_receive(TransitMatcher::key(s1, c, reply), reply.type, 2'001'000);
  CHECK(t.all().count() == 1);
  // The receiver may run before send_payload returns: clamped at zero.
  t.on_send(TransitMatcher::key(s1, c, reply), reply.type, 2'002'000);
  CHECK(t.by_type(reply.type).count() == 1);
  CHECK(t.by_type(reply.type).percentile(50) == 0);
  // A different op id never matches.
  WirePeek other = w;
  other.op_id += 1;
  t.on_receive(TransitMatcher::key(c, s1, other), q, 2'003'000);
  CHECK(t.all().count() == 2);
  t.on_receive(TransitMatcher::key(c, s1, w), q, 2'005'000);
  CHECK(t.all().count() == 3);
}

void test_coverage() {
  // Three synthetic read spans, each split into stages that tile it: the
  // medians add up to the end-to-end median.
  struct Span {
    std::vector<double> stages;
  };
  const std::vector<Span> spans = {
      {{2, 10, 40, 5, 40, 3}}, {{2, 12, 38, 6, 42, 3}}, {{3, 11, 40, 5, 41, 2}}};
  std::vector<std::vector<double>> by_stage(6);
  std::vector<double> e2e;
  for (const Span& s : spans) {
    double total = 0;
    for (size_t i = 0; i < s.stages.size(); ++i) {
      by_stage[i].push_back(s.stages[i]);
      total += s.stages[i];
    }
    e2e.push_back(total);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return percentile_sorted(v, 50);
  };
  std::vector<double> medians;
  for (const auto& st : by_stage) medians.push_back(median(st));
  CHECK(std::abs(coverage(medians, median(e2e)) - 1.0) < 1e-9);
  // Drop a stage (the quorum wait nobody traced): coverage shows the gap.
  medians[4] = 0;
  CHECK(std::abs(coverage(medians, median(e2e)) - 61.0 / 102.0) < 1e-9);
  CHECK(coverage(medians, 0) == 0);
}

void test_safety_examples() {
  const uint64_t v0 = 0;
  // write(1) completes, then a read returns v0: stale, a violation.
  std::vector<HistOp> h = {{true, 10, 20, true, 1}, {false, 30, 40, true, v0}};
  CHECK(safety_violations(h, v0).size() == 1);
  // The same read concurrent with the write may return v0 or 1.
  h = {{true, 10, 35, true, 1}, {false, 30, 40, true, v0}};
  CHECK(safety_violations(h, v0).empty());
  h[1].value = 1;
  CHECK(safety_violations(h, v0).empty());
  // A value nobody wrote fails strict validity even under concurrency.
  h[1].value = 99;
  CHECK(safety_violations(h, v0).size() == 1);
  // Superseded: write 1, then write 2 completes before the read starts.
  h = {{true, 0, 5, true, 1}, {true, 6, 9, true, 2}, {false, 10, 12, true, 1}};
  CHECK(safety_violations(h, v0).size() == 1);
  h[2].value = 2;
  CHECK(safety_violations(h, v0).empty());
  // An incomplete write is never superseded-by or completed-before.
  h = {{true, 0, 0, false, 1}, {false, 10, 12, true, 1}};
  CHECK(safety_violations(h, v0).empty());
}

void test_safety_matches_checker() {
  Rng rng(2024);
  int disagreements = 0;
  int unsafe = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const size_t n = 1 + rng.uniform(10);
    std::vector<HistOp> fast;
    std::vector<checker::OpRecord> slow;
    for (size_t i = 0; i < n; ++i) {
      HistOp h;
      h.write = rng.bernoulli(0.4);
      h.invoked = rng.uniform(40);
      h.responded = h.invoked + rng.uniform(12);  // zero-length ops too
      h.completed = rng.bernoulli(0.85);
      h.value = rng.uniform(4);  // 0 is v0; writes may write it as well
      fast.push_back(h);
      checker::OpRecord r;
      r.kind = h.write ? checker::OpRecord::Kind::kWrite
                       : checker::OpRecord::Kind::kRead;
      r.client = ProcessId::reader(static_cast<uint32_t>(i));
      r.id = i;
      r.invoked_at = h.invoked;
      r.completed = h.completed;
      if (h.completed) r.responded_at = h.responded;
      if (h.value != 0) r.value = Bytes{static_cast<uint8_t>(h.value)};
      slow.push_back(r);
    }
    checker::CheckOptions opts;
    opts.strict_validity = true;
    const bool slow_ok = checker::check_safety(slow, opts).ok;
    const bool fast_ok = safety_violations(fast, 0).empty();
    if (slow_ok != fast_ok) ++disagreements;
    if (!slow_ok) ++unsafe;
  }
  CHECK(disagreements == 0);
  // The random histories exercise both verdicts.
  CHECK(unsafe > 1000);
  CHECK(unsafe < 19000);
}

}  // namespace
}  // namespace bftreg::qb

int main() {
  using namespace bftreg::qb;
  test_percentiles();
  test_stall_is_charged();
  test_transit_matching();
  test_coverage();
  test_safety_examples();
  test_safety_matches_checker();
  if (g_failures != 0) {
    std::fprintf(stderr, "quorumbench self-test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "quorumbench self-test: all passed\n");
  return 0;
}
