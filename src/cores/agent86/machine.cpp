#include "src/cores/agent86/machine.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/hash.h"

namespace rtct::a86 {

namespace {
constexpr std::size_t kDebugLogCap = 4096;
}  // namespace

Agent86Machine::Agent86Machine(Program program, MachineConfig cfg)
    : program_(std::move(program)), checksum_(program_.checksum()), cfg_(cfg),
      mem_(kMemSize, 0) {
  reset();
}

void Agent86Machine::reset() {
  std::fill(mem_.begin(), mem_.end(), 0);
  const std::size_t limit = std::min(program_.image.size(), kMemSize - program_.org);
  std::copy_n(program_.image.begin(), limit, mem_.begin() + program_.org);
  for (auto& r : regs_) r = 0;
  regs_[SP] = kInitialSp;
  ip_ = program_.entry;
  zf_ = sf_ = cf_ = false;
  fault_ = Fault::kNone;
  tone_ = 0;
  frame_ = 0;
  last_frame_cycles_ = 0;
  debug_log_.clear();
  pages_.mark_all_dirty();
}

void Agent86Machine::step_frame(InputWord input) {
  if (faulted()) return;  // a faulted machine stays stopped
  // Latch the input block through the tracked writes: the CPU sees inputs
  // as plain memory, and they are synchronized state like everything else.
  write8(kInputBase + 0, player_byte(input, 0));
  write8(kInputBase + 1, player_byte(input, 1));
  write16(kInputBase + 2, static_cast<std::uint16_t>(frame_ & 0xFFFF));
  write16(kInputBase + 4, static_cast<std::uint16_t>((frame_ >> 16) & 0xFFFF));
  last_frame_cycles_ = run_frame(cfg_.cycles_per_frame);
  ++frame_;
}

int Agent86Machine::run_frame(int cycle_budget) {
  int cycles = 0;

  const auto fetch8 = [&]() -> std::uint8_t {
    const std::uint8_t v = mem_[ip_];
    ip_ = static_cast<std::uint16_t>(ip_ + 1);
    return v;
  };
  const auto fetch16 = [&]() -> std::uint16_t {
    const std::uint16_t lo = fetch8();
    return static_cast<std::uint16_t>(lo | (fetch8() << 8));
  };
  const auto set_zs = [&](std::uint16_t v) {
    zf_ = v == 0;
    sf_ = (v & 0x8000) != 0;
  };
  // Operand-register decode; a byte naming a register out of range is a
  // deterministic fault, never UB.
  const auto reg_ok = [&](std::uint8_t r) {
    if (r < kNumRegs) return true;
    fault_ = Fault::kBadReg;
    return false;
  };
  const auto push16 = [&](std::uint16_t v) {
    regs_[SP] = static_cast<std::uint16_t>(regs_[SP] - 2);
    write16(regs_[SP], v);
  };
  const auto pop16 = [&]() -> std::uint16_t {
    const std::uint16_t v = read16(regs_[SP]);
    regs_[SP] = static_cast<std::uint16_t>(regs_[SP] + 2);
    return v;
  };
  // Shared ALU bodies (register/immediate forms differ only in operand
  // fetch and cycle cost).
  const auto alu = [&](std::uint8_t op_kind, std::uint8_t dst, std::uint16_t b) {
    const std::uint16_t a = regs_[dst];
    std::uint16_t r = 0;
    switch (op_kind) {
      case 0:  // ADD
        r = static_cast<std::uint16_t>(a + b);
        cf_ = (static_cast<std::uint32_t>(a) + b) > 0xFFFF;
        break;
      case 1:  // SUB
        r = static_cast<std::uint16_t>(a - b);
        cf_ = a < b;
        break;
      case 2: r = static_cast<std::uint16_t>(a & b); cf_ = false; break;
      case 3: r = static_cast<std::uint16_t>(a | b); cf_ = false; break;
      case 4: r = static_cast<std::uint16_t>(a ^ b); cf_ = false; break;
      case 5: {  // SHL, count mod 16; count 0 leaves flags alone
        const int n = b & 15;
        if (n == 0) { set_zs(a); return; }
        cf_ = ((a >> (16 - n)) & 1) != 0;
        r = static_cast<std::uint16_t>(a << n);
        break;
      }
      case 6: {  // SHR
        const int n = b & 15;
        if (n == 0) { set_zs(a); return; }
        cf_ = ((a >> (n - 1)) & 1) != 0;
        r = static_cast<std::uint16_t>(a >> n);
        break;
      }
      case 7: {  // MUL: low 16 bits; CF flags a lost high word (8086 flavor)
        const std::uint32_t p = static_cast<std::uint32_t>(a) * b;
        r = static_cast<std::uint16_t>(p & 0xFFFF);
        cf_ = (p >> 16) != 0;
        break;
      }
      default: break;
    }
    regs_[dst] = r;
    set_zs(r);
  };

  while (cycles < cycle_budget) {
    const std::uint8_t op = fetch8();
    switch (op) {
      case kNop:
        cycles += 1;
        break;
      case kHlt:
        cycles += 1;
        return cycles;
      case kInt3:
        fault_ = Fault::kTrap;
        return cycles;

      case kMovRI: {
        const std::uint8_t r = fetch8();
        const std::uint16_t imm = fetch16();
        if (!reg_ok(r)) return cycles;
        regs_[r] = imm;  // MOV never touches flags (8086 flavor)
        cycles += 2;
        break;
      }
      case kMovRR: {
        const std::uint8_t rr = fetch8();
        const std::uint8_t d = rr >> 4, s = rr & 15;
        if (!reg_ok(d) || !reg_ok(s)) return cycles;
        regs_[d] = regs_[s];
        cycles += 1;
        break;
      }
      case kLdB:
      case kLdW: {
        const std::uint8_t rr = fetch8();
        const std::uint8_t disp = fetch8();
        const std::uint8_t d = rr >> 4, base = rr & 15;
        if (!reg_ok(d) || !reg_ok(base)) return cycles;
        const auto addr = static_cast<std::uint16_t>(regs_[base] + disp);
        regs_[d] = (op == kLdB) ? mem_[addr] : read16(addr);
        cycles += 3;
        break;
      }
      case kStB:
      case kStW: {
        const std::uint8_t rr = fetch8();
        const std::uint8_t disp = fetch8();
        const std::uint8_t base = rr >> 4, s = rr & 15;
        if (!reg_ok(base) || !reg_ok(s)) return cycles;
        const auto addr = static_cast<std::uint16_t>(regs_[base] + disp);
        if (op == kStB) {
          write8(addr, static_cast<std::uint8_t>(regs_[s] & 0xFF));
        } else {
          write16(addr, regs_[s]);
        }
        cycles += 3;
        break;
      }

      case kAddRR: case kSubRR: case kAndRR: case kOrRR:
      case kXorRR: case kShlRR: case kShrRR: case kMulRR: {
        const std::uint8_t rr = fetch8();
        const std::uint8_t d = rr >> 4, s = rr & 15;
        if (!reg_ok(d) || !reg_ok(s)) return cycles;
        alu(static_cast<std::uint8_t>(op - kAddRR), d, regs_[s]);
        cycles += (op == kMulRR) ? 4 : 1;
        break;
      }
      case kAddRI: case kSubRI: case kAndRI: case kOrRI:
      case kXorRI: case kShlRI: case kShrRI: case kMulRI: {
        const std::uint8_t r = fetch8();
        const std::uint16_t imm = fetch16();
        if (!reg_ok(r)) return cycles;
        alu(static_cast<std::uint8_t>(op - kAddRI), r, imm);
        cycles += (op == kMulRI) ? 4 : 2;
        break;
      }

      case kNeg: {
        const std::uint8_t r = fetch8();
        if (!reg_ok(r)) return cycles;
        const std::uint16_t v = static_cast<std::uint16_t>(0 - regs_[r]);
        cf_ = v != 0;  // 8086: NEG sets CF unless the operand was zero
        regs_[r] = v;
        set_zs(v);
        cycles += 1;
        break;
      }
      case kNot: {
        const std::uint8_t r = fetch8();
        if (!reg_ok(r)) return cycles;
        regs_[r] = static_cast<std::uint16_t>(~regs_[r]);  // NOT: no flags (8086)
        cycles += 1;
        break;
      }
      case kInc:
      case kDec: {
        const std::uint8_t r = fetch8();
        if (!reg_ok(r)) return cycles;
        regs_[r] = static_cast<std::uint16_t>(regs_[r] + (op == kInc ? 1 : -1));
        set_zs(regs_[r]);  // INC/DEC preserve CF (8086 flavor)
        cycles += 1;
        break;
      }

      case kCmpRR: {
        const std::uint8_t rr = fetch8();
        const std::uint8_t a = rr >> 4, b = rr & 15;
        if (!reg_ok(a) || !reg_ok(b)) return cycles;
        const std::uint16_t r = static_cast<std::uint16_t>(regs_[a] - regs_[b]);
        cf_ = regs_[a] < regs_[b];
        set_zs(r);
        cycles += 1;
        break;
      }
      case kCmpRI: {
        const std::uint8_t a = fetch8();
        const std::uint16_t imm = fetch16();
        if (!reg_ok(a)) return cycles;
        const std::uint16_t r = static_cast<std::uint16_t>(regs_[a] - imm);
        cf_ = regs_[a] < imm;
        set_zs(r);
        cycles += 2;
        break;
      }

      case kJmp: case kJz: case kJnz: case kJc:
      case kJnc: case kJs: case kJns: {
        const std::uint16_t target = fetch16();
        bool taken = true;
        switch (op) {
          case kJz: taken = zf_; break;
          case kJnz: taken = !zf_; break;
          case kJc: taken = cf_; break;
          case kJnc: taken = !cf_; break;
          case kJs: taken = sf_; break;
          case kJns: taken = !sf_; break;
          default: break;
        }
        if (taken) ip_ = target;
        cycles += 2;
        break;
      }
      case kLoop: {
        const std::uint16_t target = fetch16();
        regs_[CX] = static_cast<std::uint16_t>(regs_[CX] - 1);  // flags untouched
        if (regs_[CX] != 0) ip_ = target;
        cycles += 2;
        break;
      }
      case kCall: {
        const std::uint16_t target = fetch16();
        push16(ip_);
        ip_ = target;
        cycles += 4;
        break;
      }
      case kRet:
        ip_ = pop16();
        cycles += 4;
        break;
      case kPush: {
        const std::uint8_t r = fetch8();
        if (!reg_ok(r)) return cycles;
        push16(regs_[r]);
        cycles += 3;
        break;
      }
      case kPop: {
        const std::uint8_t r = fetch8();
        if (!reg_ok(r)) return cycles;
        regs_[r] = pop16();
        cycles += 3;
        break;
      }

      case kOut: {
        const std::uint8_t port = fetch8();
        const std::uint8_t r = fetch8();
        if (!reg_ok(r)) return cycles;
        if (port == kPortTone) {
          tone_ = regs_[r];
        } else if (port == kPortDebug && debug_log_.size() < kDebugLogCap) {
          debug_log_.push_back(regs_[r]);  // diagnostic only: not hashed
        }
        cycles += 2;
        break;
      }

      default:
        fault_ = Fault::kBadOpcode;
        return cycles;
    }
  }
  fault_ = Fault::kBudgetExceeded;
  return cycles;
}

std::uint64_t Agent86Machine::state_hash() const {
  Fnv1a64 h;
  visit_header(h);
  h.update(std::span<const std::uint8_t>(mem_.data(), kMemSize));
  return h.digest();
}

std::uint64_t Agent86Machine::state_digest(int version) const {
  if (version <= 1) return state_hash();
  Fnv1a64 h;
  h.update_u8(2);  // domain-separate v2 from the v1 hash, like AC16
  visit_header(h);
  pages_.fold_into(h, mem_.data());
  return h.digest();
}

std::vector<std::uint64_t> Agent86Machine::page_digests() const {
  const auto digests = pages_.refresh(mem_.data());
  return {digests.begin(), digests.end()};
}

std::vector<std::uint8_t> Agent86Machine::save_state() const {
  std::vector<std::uint8_t> out;
  save_state_into(out);
  return out;
}

void Agent86Machine::save_state_into(std::vector<std::uint8_t>& out) const {
  if (out.capacity() < 64 + kMemSize) out.reserve(64 + kMemSize);
  ByteWriter w(std::move(out));
  w.u8(kStateVersion);
  w.u64(checksum_);
  visit_header(w);
  w.bytes(std::span<const std::uint8_t>(mem_.data(), kMemSize));
  out = w.take();
}

bool Agent86Machine::load_state(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  if (r.u8() != kStateVersion) return false;
  if (r.u64() != checksum_) return false;  // snapshot from another game

  std::uint16_t regs[kNumRegs];
  for (auto& reg : regs) reg = r.u16();
  const std::uint16_t ip = r.u16();
  const std::uint8_t flags = r.u8();
  const std::uint8_t fault = r.u8();
  const std::uint16_t tone = r.u16();
  const auto frame = static_cast<FrameNo>(r.u64());
  const auto ram = r.bytes(kMemSize);
  if (!r.ok() || !r.at_end()) return false;
  // save_state only ever writes ZF/SF/CF and a Fault enumerator.
  if (fault > static_cast<std::uint8_t>(Fault::kBudgetExceeded) || flags > 7) return false;

  std::copy(std::begin(regs), std::end(regs), std::begin(regs_));
  ip_ = ip;
  zf_ = (flags & 1) != 0;
  sf_ = (flags & 2) != 0;
  cf_ = (flags & 4) != 0;
  fault_ = static_cast<Fault>(fault);
  tone_ = tone;
  frame_ = frame;
  pages_.restore(mem_.data(), ram);
  debug_log_.clear();
  return true;
}

}  // namespace rtct::a86
