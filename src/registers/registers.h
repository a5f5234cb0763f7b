// Umbrella header: the public API of the register library.
//
// Client: RegisterClient (client.h) -- one client object per process,
//   constructed from a SystemConfig (see SystemConfig::Builder) plus a
//   ProtocolVariant, offering read/write/read_batch over any number of
//   objects with any number of operations in flight, deadline-based
//   timeouts and capped retries. BlockingRegisterClient wraps it
//   future-style for the real-time transports.
//
// ProtocolVariant (config.h) is the one protocol identity: kProtocolNames
// spells each variant's display name and command-line key, and
// min_servers() gives its resilience bound. Each variant's operations are
// PendingOps in protocol_ops.h, one per figure of the paper, with the paper
// mapping on each class:
//   kBsr         + RegisterServer -- MWMR replicated safe register, one-shot
//                  reads, n >= 4f+1 (Section III, Figs. 1-3).
//   kBcsr        + RegisterServer seeded with bcsr_initial_elements() --
//                  SWMR erasure-coded safe register, one-shot reads,
//                  n >= 5f+1 (Section IV, Figs. 4-6).
//   kBsrHistory  -- one-shot *regular* reads via full-history responses
//                  (Section III-C, option 1).
//   kBsrTwoRound -- two-round regular reads (Section III-C, option 2).
//   kRb          + RbServer -- RB-based baseline, n >= 3f+1 (comparator;
//                  Section VI / [15]).
//   kBsrWriteBack -- extension: ABD-style write-back upgrades BSR reads to
//                  atomicity at the cost of a second round (consistent with
//                  the semi-fast atomicity impossibility of [13]).
//   read_batch   -- extension: one-shot multi-get over many objects.
#pragma once

#include "registers/bcsr.h"            // IWYU pragma: export
#include "registers/client.h"          // IWYU pragma: export
#include "registers/config.h"          // IWYU pragma: export
#include "registers/messages.h"        // IWYU pragma: export
#include "registers/op_mux.h"          // IWYU pragma: export
#include "registers/protocol_ops.h"    // IWYU pragma: export
#include "registers/rb_register.h"     // IWYU pragma: export
#include "registers/results.h"         // IWYU pragma: export
#include "registers/server.h"          // IWYU pragma: export
