#include "adversary/churn.h"

namespace bftreg::adversary {

const char* to_string(ChurnAction a) {
  switch (a) {
    case ChurnAction::kCrash: return "crash";
    case ChurnAction::kRestart: return "restart";
    case ChurnAction::kStartWrite: return "start-write";
    case ChurnAction::kStartRead: return "start-read";
  }
  return "?";
}

// Timing notes: the harness's default uniform delay is [500, 1500] ns per
// hop, so one client round trip lands around 1-3 us. Offsets below place
// crashes INSIDE a round (hundreds of ns after its start) and restarts
// after the surrounding operations finished, with a final write+read wave
// well past the rejoin to prove the recovered cluster still serves fresh
// values.

ChurnSchedule crash_during_write_schedule(size_t victim) {
  ChurnSchedule s;
  s.name = "crash-during-write";
  s.steps = {
      {ChurnAction::kStartWrite, 0, 0},
      // get-tag needs ~2 hops (~2000ns); 700ns in, the victim has likely
      // answered QUERY-TAG but the PUT-DATA round is still ahead or in
      // flight -- the crash can eat an already-counted ACK.
      {ChurnAction::kCrash, victim, 700},
      {ChurnAction::kStartRead, 0, 5'000},
      {ChurnAction::kRestart, victim, 9'000},
      // Post-rejoin wave: the recovered server participates in fresh
      // quorums (offsets leave room for catch-up's two peer rounds).
      {ChurnAction::kStartWrite, 0, 40'000},
      {ChurnAction::kStartRead, 0, 45'000},
  };
  return s;
}

ChurnSchedule crash_during_read_writeback_schedule(size_t victim) {
  ChurnSchedule s;
  s.name = "crash-during-read-writeback";
  s.steps = {
      {ChurnAction::kStartWrite, 0, 0},
      // A kBsrWriteBack read starts at 4000ns (the write has finished by ~3000);
      // 700ns into the read its get-data quorum is complete or nearly so,
      // and the crash lands on the write-back put.
      {ChurnAction::kStartRead, 0, 4'000},
      {ChurnAction::kCrash, victim, 4'700},
      {ChurnAction::kRestart, victim, 9'000},
      {ChurnAction::kStartRead, 0, 40'000},
  };
  return s;
}

ChurnSchedule rejoin_mid_round_schedule(size_t victim) {
  ChurnSchedule s;
  s.name = "rejoin-mid-round";
  s.steps = {
      {ChurnAction::kCrash, victim, 0},
      {ChurnAction::kStartWrite, 0, 100},
      // The write's rounds are still running when the victim rejoins, so
      // its QUERY-OBJECTS/DATA-BATCH catch-up interleaves with live
      // PUT-DATA -- and the refusal window must swallow any client
      // requests that reach it before catch-up completes.
      {ChurnAction::kRestart, victim, 800},
      {ChurnAction::kStartRead, 0, 5'000},
      {ChurnAction::kStartWrite, 0, 6'000},
  };
  return s;
}

}  // namespace bftreg::adversary
