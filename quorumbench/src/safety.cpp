#include "safety.h"

#include <algorithm>
#include <unordered_map>

namespace bftreg::qb {

namespace {

constexpr TimeNs kNever = std::numeric_limits<TimeNs>::max();

struct Write {
  TimeNs inv;
  TimeNs resp;  // kNever when incomplete
  size_t id;    // index into ops, to tell a write apart from itself
};

}  // namespace

std::vector<size_t> safety_violations(std::span<const HistOp> ops,
                                      uint64_t initial) {
  std::vector<Write> writes;
  std::unordered_map<uint64_t, std::vector<size_t>> writes_of_value;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].write) continue;
    writes.push_back({ops[i].invoked,
                      ops[i].completed ? ops[i].responded : kNever, i});
  }
  std::sort(writes.begin(), writes.end(),
            [](const Write& a, const Write& b) { return a.inv < b.inv; });
  for (size_t w = 0; w < writes.size(); ++w) {
    writes_of_value[ops[writes[w].id].value].push_back(w);
  }

  // prefix_max_resp[i]: latest response among writes[0, i).
  std::vector<TimeNs> prefix_max_resp(writes.size() + 1, 0);
  for (size_t i = 0; i < writes.size(); ++i) {
    prefix_max_resp[i + 1] = std::max(prefix_max_resp[i], writes[i].resp);
  }
  // suffix_min[i]: the two earliest responses (with their write index)
  // among writes[i, end), so "some other write" excludes one candidate.
  struct Best2 {
    TimeNs r1{kNever};
    size_t w1{SIZE_MAX};
    TimeNs r2{kNever};
  };
  std::vector<Best2> suffix_min(writes.size() + 1);
  for (size_t i = writes.size(); i-- > 0;) {
    Best2 b = suffix_min[i + 1];
    const TimeNs r = writes[i].resp;
    if (r < b.r1) {
      b.r2 = b.r1;
      b.r1 = r;
      b.w1 = i;
    } else if (r < b.r2) {
      b.r2 = r;
    }
    suffix_min[i] = b;
  }
  const TimeNs first_completion = suffix_min.front().r1;

  // First write (sorted position) invoked at or after t.
  auto first_at_or_after = [&](TimeNs t) {
    return static_cast<size_t>(
        std::lower_bound(writes.begin(), writes.end(), t,
                         [](const Write& w, TimeNs v) { return w.inv < v; }) -
        writes.begin());
  };
  // Writes invoked strictly before t.
  auto count_before = [&](TimeNs t) { return first_at_or_after(t); };

  // A complete write w2 other than w with w2.inv >= w.resp and
  // w2.resp <= r_inv. Incomplete writes are never superseded.
  auto superseded = [&](size_t w, TimeNs r_inv) {
    if (writes[w].resp == kNever) return false;
    const Best2& b = suffix_min[first_at_or_after(writes[w].resp)];
    const TimeNs earliest = b.w1 == w ? b.r2 : b.r1;
    return earliest <= r_inv;
  };

  std::vector<size_t> bad;
  for (size_t i = 0; i < ops.size(); ++i) {
    const HistOp& r = ops[i];
    if (r.write || !r.completed) continue;
    // Concurrent with a write w iff w.inv < r.resp and w has not
    // responded by r.inv (incomplete writes never respond).
    const size_t started = count_before(r.responded);
    const bool concurrent = prefix_max_resp[started] > r.invoked;

    const auto it = writes_of_value.find(r.value);
    bool legal = false;
    if (concurrent) {
      legal = r.value == initial;
      if (!legal && it != writes_of_value.end()) {
        for (size_t w : it->second) {
          if (writes[w].inv < r.responded) {
            legal = true;
            break;
          }
        }
      }
    } else {
      legal = r.value == initial && first_completion > r.invoked;
      if (!legal && it != writes_of_value.end()) {
        for (size_t w : it->second) {
          if (writes[w].inv < r.invoked && !superseded(w, r.invoked)) {
            legal = true;
            break;
          }
        }
      }
    }
    if (!legal) bad.push_back(i);
  }
  return bad;
}

}  // namespace bftreg::qb
