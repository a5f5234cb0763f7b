#include "registers/bcsr.h"

#include "codec/mds_code.h"

namespace bftreg::registers {

std::vector<Bytes> bcsr_initial_elements(const SystemConfig& config) {
  return codec::MdsCode::for_bcsr(config.n, config.f).encode(config.initial_value);
}

}  // namespace bftreg::registers
