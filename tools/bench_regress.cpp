// Benchmark regression gate for the checked-in baselines (BENCH_*.json).
//
//   bench_regress <baseline.json> <current.json> [--max-regress=0.20]
//
// Both files are bftreg-bench-rows-v1 snapshots, as bench::write_rows
// (bench/bench_util.h) writes them for every gated bench: one row per line,
// each a "key" naming the measured point plus its metrics, grouped by how
// the gate treats them:
//
//   floor    higher is better; fails below baseline * (1 - max_regress)
//   ceiling  lower is better; fails above baseline * (1 + max_regress)
//   info     recorded, never compared
//
// Every floor and ceiling of a key present in BOTH files is compared, in
// the direction the baseline tags it; baseline values <= 0 are skipped.
// Any regression fails the gate (exit 1). Keys on one side only (e.g. the
// CI host lacks AVX2) print SKIP or NEW but do not fail the gate --
// hardware variance is not a regression. Exit 2 when a file is unreadable
// or in another format, or when no metric was compared at all (e.g. a
// codec baseline against a transport run).
//
// The parser is deliberately minimal: it reads only the one-row-per-line
// layout write_rows produces, which keeps this tool dependency-free (no
// JSON library in the image).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

namespace {

enum class Gate { kFloor, kCeiling };

struct Metric {
  Gate gate;
  double value;
};

using Row = std::map<std::string, Metric>;  // gated metric name -> value
using Rows = std::map<std::string, Row>;    // row key -> metrics

/// The quoted string starting at or after `*at` in `s`, or "" if none;
/// advances `*at` past its closing quote.
std::string next_string(const std::string& s, size_t* at) {
  const size_t open = s.find('"', *at);
  if (open == std::string::npos) return "";
  const size_t close = s.find('"', open + 1);
  if (close == std::string::npos) return "";
  *at = close + 1;
  return s.substr(open + 1, close - open - 1);
}

/// Adds the metrics of `line`'s `"tag": {"name": value, ...}` group to `row`.
void parse_group(const std::string& line, const char* tag, Gate gate, Row* row) {
  const std::string needle = std::string("\"") + tag + "\": {";
  size_t at = line.find(needle);
  if (at == std::string::npos) return;
  at += needle.size();
  const size_t end = line.find('}', at);
  while (at < end) {
    const std::string name = next_string(line, &at);
    if (name.empty() || at > end) return;
    const size_t colon = line.find(':', at);
    if (colon >= end) return;
    char* stop = nullptr;
    const double value = std::strtod(line.c_str() + colon + 1, &stop);
    (*row)[name] = Metric{gate, value};
    at = static_cast<size_t>(stop - line.c_str());
  }
}

bool load(const std::string& path, Rows* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_regress: cannot read %s\n", path.c_str());
    return false;
  }
  std::string line;
  if (!std::getline(in, line) ||
      line.find("\"schema\": \"bftreg-bench-rows-v1\"") == std::string::npos) {
    std::fprintf(stderr, "bench_regress: %s is not a bftreg-bench-rows-v1 file\n",
                 path.c_str());
    return false;
  }
  while (std::getline(in, line)) {
    size_t at = line.find("\"key\":");
    if (at == std::string::npos) continue;
    at += 6;
    const std::string key = next_string(line, &at);
    if (key.empty()) continue;
    Row& row = (*out)[key];
    parse_group(line, "floor", Gate::kFloor, &row);
    parse_group(line, "ceiling", Gate::kCeiling, &row);  // info is never read
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_path, cur_path;
  double max_regress = 0.20;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-regress=", 14) == 0) {
      max_regress = std::strtod(argv[i] + 14, nullptr);
    } else if (base_path.empty()) {
      base_path = argv[i];
    } else if (cur_path.empty()) {
      cur_path = argv[i];
    }
  }
  if (cur_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_regress <baseline.json> <current.json> "
                 "[--max-regress=0.20]\n");
    return 2;
  }

  Rows base, cur;
  if (!load(base_path, &base) || !load(cur_path, &cur)) return 2;

  int regressions = 0;
  int compared = 0;
  for (const auto& [key, b] : base) {
    const auto it = cur.find(key);
    if (it == cur.end()) {
      std::printf("SKIP  %-48s (absent in current run)\n", key.c_str());
      continue;
    }
    const Row& c = it->second;
    for (const auto& [name, metric] : b) {
      const double base_v = metric.value;
      if (base_v <= 0) continue;
      const auto cur_it = c.find(name);
      if (cur_it == c.end()) continue;
      const double cur_v = cur_it->second.value;
      ++compared;
      const double delta = (cur_v - base_v) / base_v * 100.0;
      const bool regressed = metric.gate == Gate::kCeiling
                                 ? cur_v > base_v * (1.0 + max_regress)
                                 : cur_v < base_v * (1.0 - max_regress);
      if (regressed) ++regressions;
      std::printf("%-5s %-48s %-17s %8.1f -> %8.1f (%+.1f%%)\n",
                  regressed ? "FAIL" : "ok", key.c_str(), name.c_str(), base_v,
                  cur_v, delta);
    }
  }
  for (const auto& [key, _] : cur) {
    if (!base.count(key)) {
      std::printf("NEW   %-48s (absent in baseline)\n", key.c_str());
    }
  }
  std::printf("bench_regress: %d metrics compared, %d regressed more than %.0f%%\n",
              compared, regressions, max_regress * 100.0);
  if (compared == 0) {
    std::fprintf(stderr,
                 "bench_regress: no metric compared -- the files share no "
                 "gated key\n");
    return 2;
  }
  return regressions > 0 ? 1 : 0;
}
