// Correctness gate: Definition 1 (safety) with strict validity, per key, in
// O(m log m) for m operations on the key.
//
// checker::check_safety decides the same predicate directly from the
// definition, but it scans every write for every read (and every write
// again inside `superseded`), so a zipfian hot key with tens of thousands
// of operations would take minutes. This version answers the same three
// questions with sorted prefix/suffix tables over the key's writes:
//   * is read r concurrent with some write?       prefix max of responses
//   * did any write complete before r began?      global min response
//   * is write w superseded before r begins?      suffix min of responses,
//                                                 over writes starting
//                                                 after w responded
// The self-test cross-checks it against checker::check_safety on random
// histories.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.h"

namespace bftreg::qb {

/// One operation on one key. Values are identified by an id; the checker
/// only compares values for equality.
struct HistOp {
  bool write{false};
  TimeNs invoked{0};
  /// Response time; ignored unless `completed`.
  TimeNs responded{std::numeric_limits<TimeNs>::max()};
  bool completed{false};
  uint64_t value{0};
};

/// Indices (into `ops`) of the completed reads that violate Definition 1
/// with strict validity, where `initial` is the id of v0. Empty means the
/// history is safe; it is the same verdict checker::check_safety gives with
/// strict_validity set.
std::vector<size_t> safety_violations(std::span<const HistOp> ops,
                                      uint64_t initial);

}  // namespace bftreg::qb
