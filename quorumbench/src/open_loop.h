// Open-loop pacing: op i is due at start + i / rate whether or not earlier
// ops have finished, so a stall anywhere (generator, transport, servers)
// is charged to every op that was due during it. Latency is measured from
// the due time (the op's intended start), never from when the generator
// got around to posting it -- that would hide the stall (coordinated
// omission).
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>

namespace bftreg::qb {

/// Due time (steady ns) of op `i` of a schedule that starts at `start_ns`.
inline int64_t due_ns(int64_t start_ns, double rate, uint64_t i) {
  return start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
}

/// Issues ops on the schedule until the next one would be due at or after
/// `end_ns`, or `stop()` says so (checked every 64 ops). `issue(i, due)` is
/// called on this thread; when the loop is behind it issues every overdue
/// op back to back instead of skipping any. Returns the number issued.
///
/// The last kSpinNs before each due time are spent yielding, not sleeping:
/// a sleeping core on a virtual host can take milliseconds to wake, which
/// would show up as lag, while a yield still hands the core to any other
/// runnable thread.
template <typename Issue, typename Stop>
uint64_t run_open_loop(double rate, int64_t start_ns, int64_t end_ns,
                       Issue&& issue, Stop&& stop) {
  using Clock = std::chrono::steady_clock;
  constexpr int64_t kSpinNs = 2'000'000;
  auto now_ns = [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  };
  uint64_t i = 0;
  for (;; ++i) {
    const int64_t due = due_ns(start_ns, rate, i);
    if (due >= end_ns) break;
    if (i % 64 == 0 && stop()) break;
    if (due - now_ns() > kSpinNs) {
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(due - kSpinNs)));
    }
    while (now_ns() < due) std::this_thread::yield();
    issue(i, due);
  }
  return i;
}

}  // namespace bftreg::qb
