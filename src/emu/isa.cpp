#include "src/emu/isa.h"

#include <algorithm>

namespace rtct::emu {

void encode(const Instr& ins, std::uint8_t out[4]) {
  out[0] = static_cast<std::uint8_t>(ins.op);
  out[1] = ins.a;
  out[2] = ins.b;
  out[3] = ins.c;
}

Instr decode(const std::uint8_t in[4]) {
  Instr ins;
  ins.op = static_cast<Op>(in[0]);
  ins.a = in[1];
  ins.b = in[2];
  ins.c = in[3];
  return ins;
}

bool is_valid_opcode(std::uint8_t op) {
  switch (static_cast<Op>(op)) {
    case Op::kNop:
    case Op::kHalt:
    case Op::kBrk:
    case Op::kLdi:
    case Op::kMov:
    case Op::kLdb:
    case Op::kLdw:
    case Op::kStb:
    case Op::kStw:
    case Op::kAdd:
    case Op::kSub:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kShr:
    case Op::kMul:
    case Op::kNeg:
    case Op::kNot:
    case Op::kAddi:
    case Op::kSubi:
    case Op::kAndi:
    case Op::kOri:
    case Op::kXori:
    case Op::kShli:
    case Op::kShri:
    case Op::kMuli:
    case Op::kCmp:
    case Op::kCmpi:
    case Op::kJmp:
    case Op::kJz:
    case Op::kJnz:
    case Op::kJc:
    case Op::kJnc:
    case Op::kJn:
    case Op::kJnn:
    case Op::kCall:
    case Op::kRet:
    case Op::kPush:
    case Op::kPop:
    case Op::kIn:
    case Op::kOut:
      return true;
  }
  return false;
}

int cycle_cost(Op op) {
  switch (op) {
    case Op::kMul:
    case Op::kMuli:
      return 4;
    case Op::kLdb:
    case Op::kLdw:
    case Op::kStb:
    case Op::kStw:
    case Op::kPush:
    case Op::kPop:
      return 2;
    case Op::kCall:
    case Op::kRet:
      return 3;
    default:
      return 1;
  }
}

PredecodedRom::PredecodedRom(std::span<const std::uint8_t> rom_image) {
  entries.resize(std::min<std::size_t>(rom_image.size(), kLimit));
  auto at = [&rom_image](std::size_t addr) -> std::uint8_t {
    return addr < rom_image.size() ? rom_image[addr] : 0;
  };
  for (std::size_t addr = 0; addr < entries.size(); ++addr) {
    Entry& e = entries[addr];
    e.op = at(addr);
    e.a = at(addr + 1);
    e.b = at(addr + 2);
    e.c = at(addr + 3);
    e.imm = static_cast<std::uint16_t>(e.b | (e.c << 8));
  }
  // Fill-loop heads: one more pass over the image-sized table, which every
  // replica builds.
  constexpr std::size_t kLoopBytes = 4 * kInstrBytes;
  auto is = [](const Entry& e, Op op) { return e.op == static_cast<std::uint16_t>(op); };
  for (std::size_t head = 0; head + kLoopBytes <= entries.size(); ++head) {
    Entry& store = entries[head];
    const Entry& step = entries[head + kInstrBytes];
    const Entry& count = entries[head + 2 * kInstrBytes];
    const Entry& branch = entries[head + 3 * kInstrBytes];
    if (!is(store, Op::kStb) && !is(store, Op::kStw)) continue;
    const int ptr = store.a & 0xF, value = store.b & 0xF, counter = count.a & 0xF;
    if (is(step, Op::kAddi) && (step.a & 0xF) == ptr && is(count, Op::kSubi) &&
        count.imm == 1 && is(branch, Op::kJnz) && branch.imm == head && ptr != value &&
        ptr != counter && value != counter) {
      store.op = is(store, Op::kStb) ? kFillStb : kFillStw;
    }
  }
}

std::string mnemonic(Op op) {
  switch (op) {
    case Op::kNop: return "NOP";
    case Op::kHalt: return "HALT";
    case Op::kBrk: return "BRK";
    case Op::kLdi: return "LDI";
    case Op::kMov: return "MOV";
    case Op::kLdb: return "LDB";
    case Op::kLdw: return "LDW";
    case Op::kStb: return "STB";
    case Op::kStw: return "STW";
    case Op::kAdd: return "ADD";
    case Op::kSub: return "SUB";
    case Op::kAnd: return "AND";
    case Op::kOr: return "OR";
    case Op::kXor: return "XOR";
    case Op::kShl: return "SHL";
    case Op::kShr: return "SHR";
    case Op::kMul: return "MUL";
    case Op::kNeg: return "NEG";
    case Op::kNot: return "NOT";
    case Op::kAddi: return "ADDI";
    case Op::kSubi: return "SUBI";
    case Op::kAndi: return "ANDI";
    case Op::kOri: return "ORI";
    case Op::kXori: return "XORI";
    case Op::kShli: return "SHLI";
    case Op::kShri: return "SHRI";
    case Op::kMuli: return "MULI";
    case Op::kCmp: return "CMP";
    case Op::kCmpi: return "CMPI";
    case Op::kJmp: return "JMP";
    case Op::kJz: return "JZ";
    case Op::kJnz: return "JNZ";
    case Op::kJc: return "JC";
    case Op::kJnc: return "JNC";
    case Op::kJn: return "JN";
    case Op::kJnn: return "JNN";
    case Op::kCall: return "CALL";
    case Op::kRet: return "RET";
    case Op::kPush: return "PUSH";
    case Op::kPop: return "POP";
    case Op::kIn: return "IN";
    case Op::kOut: return "OUT";
  }
  return "???";
}

}  // namespace rtct::emu
