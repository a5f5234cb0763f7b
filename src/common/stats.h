// Small statistics helpers used by the benchmark harness and tests.
//
// Thread-safety: OnlineStats, Samples, and TextTable are single-threaded
// (note that Samples::percentile sorts lazily under const, so even
// concurrent *reads* race); a caller that records from several threads
// guards the accumulator itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bftreg {

/// Streaming mean/variance (Welford) plus min/max.
class OnlineStats {
 public:
  void add(double x);

  uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  uint64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
  double sum_{0.0};
};

/// Sample collector with exact percentiles (sorts on demand).
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  void clear() {
    values_.clear();
    sorted_ = false;
  }

  size_t count() const { return values_.size(); }
  double mean() const;
  /// p in [0, 100]; nearest-rank percentile. Returns 0 on empty.
  double percentile(double p) const;
  double min() const { return percentile(0); }
  double median() const { return percentile(50); }
  double p99() const { return percentile(99); }
  double max() const { return percentile(100); }

  const std::vector<double>& values() const { return values_; }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_{false};
};

/// Fixed-width text table used by the bench binaries to print the
/// paper-claim reproductions in a uniform format.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> row);
  std::string render() const;

  static std::string fmt(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace bftreg
