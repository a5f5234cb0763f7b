// Churn schedules: declarative crash/rejoin scripts for the simulator.
//
// A ChurnSchedule is a named, time-ordered list of steps -- crash a server,
// restart it (WAL replay + quorum catch-up), start a write, start a read --
// that the harness interprets against a SimCluster
// (harness::run_churn_schedule). Keeping the schedules declarative has two
// payoffs: the same script runs unchanged under different protocols/seeds,
// and the schedule NAME keys the deterministic RNG reseed
// (harness::schedule_seed), so a failing churn execution reproduces
// bit-identically regardless of ctest shuffle order.
//
// The builders below encode the three adversarial timings crash/rejoin
// recovery must survive (Kumar-Welch's churn hazards, specialized to a
// single crash/rejoin):
//   - crash DURING a write: the victim may have ACKed the put and then lost
//     the quorum its ACK was counted toward;
//   - crash during a read's write-back: same hazard on the read side
//     (kBsrWriteBack's phase 2 is a put);
//   - rejoin MID-ROUND: the recovered server answers client rounds while
//     its catch-up traffic is still interleaving with them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace bftreg::adversary {

enum class ChurnAction : uint8_t {
  kCrash = 0,       // mark server `index` crashed
  kRestart = 1,     // rejoin server `index`: WAL replay + catch-up
  kStartWrite = 2,  // start an async write on writer `index`
  kStartRead = 3,   // start an async read on reader `index`
};

const char* to_string(ChurnAction a);

struct ChurnStep {
  ChurnAction action{ChurnAction::kCrash};
  /// Server index for kCrash/kRestart; client index for kStartWrite/Read.
  size_t index{0};
  /// Virtual time offset (ns) from the schedule's start.
  TimeNs at{0};
};

struct ChurnSchedule {
  /// Keys the deterministic reseed (harness::schedule_seed) and labels
  /// failures; two schedules with the same name replay identically.
  std::string name;
  std::vector<ChurnStep> steps;  // must be sorted by `at`
};

/// Crash the victim while a write's PUT-DATA round is in flight (it may
/// have ACKed already), then rejoin it and run a fresh write/read round
/// against the recovered cluster.
ChurnSchedule crash_during_write_schedule(size_t victim);

/// Crash the victim between a write-back read's get-data and its put-data
/// phase (run under ProtocolVariant::kBsrWriteBack), then rejoin and re-read.
ChurnSchedule crash_during_read_writeback_schedule(size_t victim);

/// Rejoin the victim while a client round is mid-flight, so catch-up
/// traffic interleaves with live QUERY/PUT rounds.
ChurnSchedule rejoin_mid_round_schedule(size_t victim);

}  // namespace bftreg::adversary
