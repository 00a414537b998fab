#include "src/cores/agent86/isa.h"

#include <span>
#include <string_view>

#include "src/common/hash.h"

namespace rtct::a86 {

const char* fault_name(Fault f) {
  switch (f) {
    case Fault::kNone: return "none";
    case Fault::kBadOpcode: return "bad-opcode";
    case Fault::kBadReg: return "bad-register";
    case Fault::kTrap: return "trap";
    case Fault::kBudgetExceeded: return "budget-exceeded";
  }
  return "?";
}

std::uint64_t Program::checksum() const {
  Fnv1a64 h;
  for (const char c : std::string_view("agent86")) h.update_u8(static_cast<std::uint8_t>(c));
  h.update_u16(org);
  h.update_u16(entry);
  h.update(std::span<const std::uint8_t>(image.data(), image.size()));
  return h.digest();
}

}  // namespace rtct::a86
