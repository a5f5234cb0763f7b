// BCSR: Byzantine Coded Safe Register (Section IV, Figs. 4-6).
//
// Single-writer multi-reader safe register storing [n, k] MDS coded
// elements, k = n - 5f. The client side is two PendingOps run by
// RegisterClient with ProtocolVariant::kBcsr: WriteOp ships each server
// its coded element (Fig. 4) and BcsrReadOp decodes n-f of them in one
// round (Fig. 5); protocol_ops.h has the paper mapping. The server side is
// RegisterServer seeded with the elements below (Fig. 6).
#pragma once

#include <vector>

#include "common/types.h"
#include "registers/config.h"

namespace bftreg::registers {

/// Builds the per-server initial elements Phi_i(v0) that BCSR servers are
/// seeded with (Fig. 6: L initially {(t0, c0^s)}).
std::vector<Bytes> bcsr_initial_elements(const SystemConfig& config);

}  // namespace bftreg::registers
