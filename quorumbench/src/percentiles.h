// Percentile math shared by the end-to-end and per-layer metrics.
//
// Two collectors: exact samples (end-to-end latency, a few hundred thousand
// per run) and a lock-free log-linear histogram (per-message layer timings,
// millions per traced run, recorded from several threads).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace bftreg::qb {

/// Latency of an operation that failed or never finished: it misses every
/// limit, so it sorts after every real sample.
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Samples a percentile needs beyond it before the run may report it.
inline constexpr size_t kTailSamples = 10;

/// Nearest-rank percentile of an ascending vector; p in [0, 100]. The rank
/// is ceil(p/100 * n), clamped to [1, n]; 0 on an empty vector.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // The epsilon keeps ranks that are exact integers in real arithmetic
  // (p = 100 * (n - 10) / n) from rounding up a whole rank.
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// The highest percentile whose nearest-rank sample still has at least
/// kTailSamples samples after it: 100 * (n - 10) / n. Returns 0 when n is
/// too small to support any percentile.
inline double highest_supported_percentile(size_t n) {
  if (n <= kTailSamples) return 0.0;
  return 100.0 * static_cast<double>(n - kTailSamples) / static_cast<double>(n);
}

/// Share of the end-to-end median that the blocking-path stage medians
/// account for. 1.0 means the ledger adds up; below 1 some wait is not
/// covered by any stage (for a quorum read: waiting for the (n-f)-th reply
/// rather than the median one).
inline double coverage(const std::vector<double>& stage_medians,
                       double end_to_end_median) {
  if (end_to_end_median <= 0.0) return 0.0;
  double sum = 0.0;
  for (double s : stage_medians) sum += s;
  return sum / end_to_end_median;
}

/// Log-linear histogram of nanosecond durations: 64 linear sub-buckets per
/// power of two (under 1% relative error), relaxed atomic counters so any
/// number of threads may record concurrently without a lock.
class LogHist {
 public:
  void record(uint64_t ns) {
    buckets_[index_of(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Nearest-rank percentile (ns, bucket midpoint); 0 when empty.
  double percentile(double p) const {
    const uint64_t n = count();
    if (n == 0) return 0.0;
    auto rank = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<uint64_t>(rank, 1, n);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i].load(std::memory_order_relaxed);
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

  void merge_from(const LogHist& other) {
    for (size_t i = 0; i < kBuckets; ++i) {
      const uint64_t c = other.buckets_[i].load(std::memory_order_relaxed);
      if (c) buckets_[i].fetch_add(c, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr unsigned kSubBits = 6;  // 64 sub-buckets per octave
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr unsigned kMaxExp = 47;  // ~39 hours in ns
  static constexpr size_t kBuckets = kSub + (kMaxExp - kSubBits + 1) * kSub;

  static size_t index_of(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
    if (e > kMaxExp) {
      e = kMaxExp;
      v = (uint64_t{1} << (kMaxExp + 1)) - 1;
    }
    const uint64_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<size_t>(kSub + (e - kSubBits) * kSub + sub);
  }

  static double midpoint(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const size_t octave = (i - kSub) / kSub;
    const size_t sub = (i - kSub) % kSub;
    const double width = std::ldexp(1.0, static_cast<int>(octave));
    return (static_cast<double>(kSub + sub) + 0.5) * width;
  }

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
};

}  // namespace bftreg::qb
