#include "src/cores/agent86/machine.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/emu/fill_loop.h"

// Threaded (computed-goto) dispatch is a GNU extension; CMake defines
// RTCT_THREADED_DISPATCH (default ON) and a switch is the portable
// fallback, exactly as in the AC16 interpreter (src/emu/cpu.cpp).
#if defined(RTCT_THREADED_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
#define RTCT_A86_DISPATCH_GOTO 1
#else
#define RTCT_A86_DISPATCH_GOTO 0
#endif

namespace rtct::a86 {

namespace {
constexpr std::size_t kDebugLogCap = 4096;
}  // namespace

Agent86Machine::Agent86Machine(Program program, MachineConfig cfg)
    : program_(std::move(program)), cfg_(cfg), state_(program_.checksum(), 0),
      predecode_(PredecodedProgram::shared(program_)) {
  reset();
}

void Agent86Machine::reset() {
  state_.clear();
  const std::size_t limit = std::min(program_.image.size(), kMemSize - program_.org);
  std::copy_n(program_.image.begin(), limit, state_.mem() + program_.org);
  for (auto& r : regs_) r = 0;
  regs_[SP] = kInitialSp;
  ip_ = program_.entry;
  zf_ = sf_ = cf_ = false;
  fault_ = Fault::kNone;
  tone_ = 0;
  frame_ = 0;
  last_frame_cycles_ = 0;
  debug_log_.clear();
  code_valid_ = predecode_->image_pages();
}

void Agent86Machine::step_frame(InputWord input) {
  if (faulted()) return;  // a faulted machine stays stopped
  // Latch the input block through the tracked writes: the CPU sees inputs
  // as plain memory, and they are synchronized state like everything else.
  write8(kInputBase + 0, player_byte(input, 0));
  write8(kInputBase + 1, player_byte(input, 1));
  write16(kInputBase + 2, static_cast<std::uint16_t>(frame_ & 0xFFFF));
  write16(kInputBase + 4, static_cast<std::uint16_t>((frame_ >> 16) & 0xFFFF));
  last_frame_cycles_ = cfg_.reference_interpreter ? run_frame(cfg_.cycles_per_frame)
                                                  : run_frame_fast(cfg_.cycles_per_frame);
  ++frame_;
}

int Agent86Machine::run_frame(int cycle_budget) {
  int cycles = 0;

  const auto fetch8 = [&]() -> std::uint8_t {
    const std::uint8_t v = state_.mem()[ip_];
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
        regs_[d] = (op == kLdB) ? state_.mem()[addr] : read16(addr);
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

// The fast interpreter. Same observable semantics as run_frame above,
// instruction for instruction: run_frame is the spec, and
// emu_differential_test holds the two to per-frame equality of digest,
// fault, cycles, tone and debug log. What changes is mechanical cost:
//   * fetch: while ip's page still matches the image (code_valid_), one
//     load from the program's shared predecode table; anywhere else
//     (a page the program stored into, memory outside the image, an
//     instruction straddling a page end) the same decode runs live from
//     RAM;
//   * each handler advances ip by its own constant length, so the next
//     fetch address never waits on the current entry's loads;
//   * registers, flags and the per-page state live in locals for the
//     whole frame: byte stores into mem cannot alias them, so the compiler
//     does not reload them after every store;
//   * dispatch: computed goto (RTCT_A86_DISPATCH_GOTO) or a switch;
//   * fill loops: at a head the predecode marked, every iteration but the
//     last runs as one block store when that is exact, and the store
//     handler then runs the last iteration, so flags, the fall-through ip
//     and the final cycle charge come from the ordinary handlers.
//
// Semantics that are easy to get wrong, kept deliberately (and pinned by
// tests): the budget is checked before each fetch (an instruction that
// starts under budget runs to completion); a faulting instruction adds no
// cycles; a bad register faults only after the whole instruction was
// fetched, so ip has moved past it; PUSH SP pushes the SP from before the
// push; fetch wraps at 0xFFFF.
int Agent86Machine::run_frame_fast(int cycle_budget) {
  std::uint8_t* const mem = state_.mem();
  const Decoded* const table = predecode_->entries();
  // One byte per page for this run: the fetch tests it every instruction
  // and a store sets it unconditionally, so neither waits on a bitmap.
  // code_valid_ and the dirty-digest bits are updated from it at the end.
  constexpr std::uint8_t kPageImage = 1;    // bit set in code_valid_, not stored to
  constexpr std::uint8_t kPageWritten = 2;  // stored to in this run
  std::uint8_t page_state[kMemSize >> emu::kPageShift] = {};
  for (std::size_t w = 0; w < code_valid_.size(); ++w) {
    for (std::uint64_t bits = code_valid_[w]; bits != 0; bits &= bits - 1) {
      page_state[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))] = kPageImage;
    }
  }
  std::uint16_t r[kNumRegs];
  std::copy(std::begin(regs_), std::end(regs_), std::begin(r));
  std::uint16_t ip = ip_;
  bool zf = zf_, sf = sf_, cf = cf_;
  Fault fault = Fault::kNone;
  int left = cycle_budget;  // cycles still in the budget
  Decoded live;
  const Decoded* e = nullptr;

#define A86_SETZS(v)               \
  do {                             \
    const std::uint16_t zs_ = (v); \
    zf = zs_ == 0;                 \
    sf = (zs_ & 0x8000) != 0;      \
  } while (0)
#define A86_ADVANCE(n) ip = static_cast<std::uint16_t>(ip + (n))
#define A86_READ16(addr)                                                 \
  static_cast<std::uint16_t>(mem[static_cast<std::uint16_t>(addr)] |     \
                             (mem[static_cast<std::uint16_t>((addr) + 1)] << 8))
#define A86_WRITE8(addr, v)                                 \
  do {                                                      \
    const std::uint16_t wa_ = (addr);                       \
    mem[wa_] = static_cast<std::uint8_t>(v);                \
    page_state[wa_ >> emu::kPageShift] = kPageWritten;      \
  } while (0)
#define A86_WRITE16(addr, v)                                            \
  do {                                                                  \
    const std::uint16_t ww_ = (addr);                                   \
    const std::uint16_t wv_ = (v);                                      \
    A86_WRITE8(ww_, wv_ & 0xFF);                                        \
    A86_WRITE8(static_cast<std::uint16_t>(ww_ + 1), wv_ >> 8);          \
  } while (0)

#define A86_FETCH()                                                  \
  do {                                                               \
    if (page_state[ip >> emu::kPageShift] == kPageImage) [[likely]] { \
      e = &table[ip];                                                \
    } else {                                                         \
      live = decode_at(mem, ip);                                     \
      e = &live;                                                     \
    }                                                                \
  } while (0)

  // A86_NEXT(cost): charge the instruction, then check the budget and
  // dispatch the next one, as run_frame's loop head does. Every handler
  // ends in its own copy of the fetch and indirect jump, so the branch
  // predictor sees per-handler history.
#if RTCT_A86_DISPATCH_GOTO
#define A86_OP(name) h_##name:
#define A86_NEXT(cost)               \
  do {                               \
    left -= (cost);                  \
    if (left <= 0) goto over_budget; \
    A86_FETCH();                     \
    goto* kDispatch[e->op];          \
  } while (0)

#define X16 &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, \
            &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad
  static const void* const kDispatch[256] = {
      /*0x00*/ &&h_Nop, &&h_Hlt, &&h_Int3, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      /*0x10*/ &&h_MovRI, &&h_MovRR, &&h_LdB, &&h_LdW, &&h_StB, &&h_StW, &&h_Bad, &&h_Bad,
      &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      /*0x20*/ &&h_AddRR, &&h_SubRR, &&h_AndRR, &&h_OrRR, &&h_XorRR, &&h_ShlRR, &&h_ShrRR,
      &&h_MulRR, &&h_Neg, &&h_Not, &&h_Inc, &&h_Dec, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      /*0x30*/ &&h_AddRI, &&h_SubRI, &&h_AndRI, &&h_OrRI, &&h_XorRI, &&h_ShlRI, &&h_ShrRI,
      &&h_MulRI, &&h_CmpRR, &&h_CmpRI, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      /*0x40*/ &&h_Jmp, &&h_Jz, &&h_Jnz, &&h_Jc, &&h_Jnc, &&h_Js, &&h_Jns, &&h_Loop,
      &&h_Call, &&h_Ret, &&h_Push, &&h_Pop, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      /*0x50*/ &&h_Out, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      /*0x60*/ X16, /*0x70*/ X16, /*0x80*/ X16, /*0x90*/ X16, /*0xA0*/ X16, /*0xB0*/ X16,
      /*0xC0*/ X16, /*0xD0*/ X16, /*0xE0*/ X16,
      /*0xF0*/ &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      &&h_Bad, &&h_Bad, &&h_Bad, &&h_Fill, &&h_Fill, &&h_Bad, &&h_BadReg, &&h_Straddle};
#undef X16
  static_assert(kXFillB == 0xFB && kXFillW == 0xFC && kXBadOpcode == 0xFD &&
                kXBadReg == 0xFE && kXStraddle == 0xFF);

  if (left <= 0) goto over_budget;
  A86_FETCH();
  goto* kDispatch[e->op];
#else
#define A86_OP(name) case k##name:
#define A86_NEXT(cost) \
  left -= (cost);      \
  continue

  for (;;) {
    if (left <= 0) goto over_budget;
    A86_FETCH();
  redispatch:
    switch (e->op) {
#endif

  A86_OP(Nop) {
    A86_ADVANCE(1);
    A86_NEXT(1);
  }
  A86_OP(Hlt) {
    A86_ADVANCE(1);
    left -= 1;
    goto done;
  }
  A86_OP(Int3) {
    A86_ADVANCE(1);
    fault = Fault::kTrap;
    goto done;
  }

  A86_OP(MovRI) {
    r[e->a] = e->imm;  // MOV never touches flags (8086 flavor)
    A86_ADVANCE(4);
    A86_NEXT(2);
  }
  A86_OP(MovRR) {
    r[e->a] = r[e->b];
    A86_ADVANCE(2);
    A86_NEXT(1);
  }
  A86_OP(LdB) {
    r[e->a] = mem[static_cast<std::uint16_t>(r[e->b] + e->imm)];
    A86_ADVANCE(3);
    A86_NEXT(3);
  }
  A86_OP(LdW) {
    const auto addr = static_cast<std::uint16_t>(r[e->b] + e->imm);
    r[e->a] = A86_READ16(addr);
    A86_ADVANCE(3);
    A86_NEXT(3);
  }
  A86_OP(StB) store_byte: {
    A86_WRITE8(r[e->a] + e->imm, r[e->b] & 0xFF);
    A86_ADVANCE(3);
    A86_NEXT(3);
  }
  A86_OP(StW) store_word: {
    A86_WRITE16(r[e->a] + e->imm, r[e->b]);
    A86_ADVANCE(3);
    A86_NEXT(3);
  }

  // ALU: `b` is read before the destination is written (ADD AX, AX).
#define A86_ALU_ADD(b_expr)                                       \
  {                                                               \
    const std::uint16_t a_ = r[e->a], b_ = (b_expr);              \
    cf = (static_cast<std::uint32_t>(a_) + b_) > 0xFFFF;          \
    r[e->a] = static_cast<std::uint16_t>(a_ + b_);                \
    A86_SETZS(r[e->a]);                                           \
  }
#define A86_ALU_SUB(b_expr)                          \
  {                                                  \
    const std::uint16_t a_ = r[e->a], b_ = (b_expr); \
    cf = a_ < b_;                                    \
    r[e->a] = static_cast<std::uint16_t>(a_ - b_);   \
    A86_SETZS(r[e->a]);                              \
  }
#define A86_ALU_LOGIC(opr, b_expr)                         \
  {                                                        \
    const std::uint16_t v_ = static_cast<std::uint16_t>(r[e->a] opr(b_expr)); \
    cf = false;                                            \
    r[e->a] = v_;                                          \
    A86_SETZS(v_);                                         \
  }
  // Shifts: count mod 16; count 0 leaves CF and the register alone.
#define A86_ALU_SHL(b_expr)                                \
  {                                                        \
    const std::uint16_t a_ = r[e->a];                      \
    const int n_ = (b_expr) & 15;                          \
    if (n_ != 0) {                                         \
      cf = ((a_ >> (16 - n_)) & 1) != 0;                   \
      r[e->a] = static_cast<std::uint16_t>(a_ << n_);      \
    }                                                      \
    A86_SETZS(r[e->a]);                                    \
  }
#define A86_ALU_SHR(b_expr)                                \
  {                                                        \
    const std::uint16_t a_ = r[e->a];                      \
    const int n_ = (b_expr) & 15;                          \
    if (n_ != 0) {                                         \
      cf = ((a_ >> (n_ - 1)) & 1) != 0;                    \
      r[e->a] = static_cast<std::uint16_t>(a_ >> n_);      \
    }                                                      \
    A86_SETZS(r[e->a]);                                    \
  }
#define A86_ALU_MUL(b_expr)                                               \
  {                                                                       \
    const std::uint32_t p_ = static_cast<std::uint32_t>(r[e->a]) * (b_expr); \
    cf = (p_ >> 16) != 0;                                                 \
    r[e->a] = static_cast<std::uint16_t>(p_ & 0xFFFF);                    \
    A86_SETZS(r[e->a]);                                                   \
  }

  A86_OP(AddRR) { A86_ALU_ADD(r[e->b]) A86_ADVANCE(2); A86_NEXT(1); }
  A86_OP(SubRR) { A86_ALU_SUB(r[e->b]) A86_ADVANCE(2); A86_NEXT(1); }
  A86_OP(AndRR) { A86_ALU_LOGIC(&, r[e->b]) A86_ADVANCE(2); A86_NEXT(1); }
  A86_OP(OrRR) { A86_ALU_LOGIC(|, r[e->b]) A86_ADVANCE(2); A86_NEXT(1); }
  A86_OP(XorRR) { A86_ALU_LOGIC(^, r[e->b]) A86_ADVANCE(2); A86_NEXT(1); }
  A86_OP(ShlRR) { A86_ALU_SHL(r[e->b]) A86_ADVANCE(2); A86_NEXT(1); }
  A86_OP(ShrRR) { A86_ALU_SHR(r[e->b]) A86_ADVANCE(2); A86_NEXT(1); }
  A86_OP(MulRR) { A86_ALU_MUL(r[e->b]) A86_ADVANCE(2); A86_NEXT(4); }
  A86_OP(AddRI) { A86_ALU_ADD(e->imm) A86_ADVANCE(4); A86_NEXT(2); }
  A86_OP(SubRI) { A86_ALU_SUB(e->imm) A86_ADVANCE(4); A86_NEXT(2); }
  A86_OP(AndRI) { A86_ALU_LOGIC(&, e->imm) A86_ADVANCE(4); A86_NEXT(2); }
  A86_OP(OrRI) { A86_ALU_LOGIC(|, e->imm) A86_ADVANCE(4); A86_NEXT(2); }
  A86_OP(XorRI) { A86_ALU_LOGIC(^, e->imm) A86_ADVANCE(4); A86_NEXT(2); }
  A86_OP(ShlRI) { A86_ALU_SHL(e->imm) A86_ADVANCE(4); A86_NEXT(2); }
  A86_OP(ShrRI) { A86_ALU_SHR(e->imm) A86_ADVANCE(4); A86_NEXT(2); }
  A86_OP(MulRI) { A86_ALU_MUL(e->imm) A86_ADVANCE(4); A86_NEXT(4); }

  A86_OP(Neg) {
    const auto v = static_cast<std::uint16_t>(0 - r[e->a]);
    cf = v != 0;  // 8086: NEG sets CF unless the operand was zero
    r[e->a] = v;
    A86_SETZS(v);
    A86_ADVANCE(2);
    A86_NEXT(1);
  }
  A86_OP(Not) {
    r[e->a] = static_cast<std::uint16_t>(~r[e->a]);  // NOT: no flags (8086)
    A86_ADVANCE(2);
    A86_NEXT(1);
  }
  A86_OP(Inc) {
    const auto v = static_cast<std::uint16_t>(r[e->a] + 1);
    r[e->a] = v;
    A86_SETZS(v);  // INC/DEC preserve CF (8086 flavor)
    A86_ADVANCE(2);
    A86_NEXT(1);
  }
  A86_OP(Dec) {
    const auto v = static_cast<std::uint16_t>(r[e->a] - 1);
    r[e->a] = v;
    A86_SETZS(v);
    A86_ADVANCE(2);
    A86_NEXT(1);
  }
  A86_OP(CmpRR) {
    const std::uint16_t a = r[e->a], b = r[e->b];
    cf = a < b;
    A86_SETZS(static_cast<std::uint16_t>(a - b));
    A86_ADVANCE(2);
    A86_NEXT(1);
  }
  A86_OP(CmpRI) {
    const std::uint16_t a = r[e->a], b = e->imm;
    cf = a < b;
    A86_SETZS(static_cast<std::uint16_t>(a - b));
    A86_ADVANCE(4);
    A86_NEXT(2);
  }

#define A86_JCC(taken)                                                \
  {                                                                   \
    ip = (taken) ? e->imm : static_cast<std::uint16_t>(ip + 3);       \
    A86_NEXT(2);                                                      \
  }
  A86_OP(Jmp) A86_JCC(true)
  A86_OP(Jz) A86_JCC(zf)
  A86_OP(Jnz) A86_JCC(!zf)
  A86_OP(Jc) A86_JCC(cf)
  A86_OP(Jnc) A86_JCC(!cf)
  A86_OP(Js) A86_JCC(sf)
  A86_OP(Jns) A86_JCC(!sf)
  A86_OP(Loop) {
    r[CX] = static_cast<std::uint16_t>(r[CX] - 1);  // flags untouched
    A86_JCC(r[CX] != 0)
  }
  A86_OP(Call) {
    const auto ret = static_cast<std::uint16_t>(ip + 3);
    const std::uint16_t target = e->imm;
    r[SP] = static_cast<std::uint16_t>(r[SP] - 2);
    A86_WRITE16(r[SP], ret);
    ip = target;
    A86_NEXT(4);
  }
  A86_OP(Ret) {
    ip = A86_READ16(r[SP]);
    r[SP] = static_cast<std::uint16_t>(r[SP] + 2);
    A86_NEXT(4);
  }
  A86_OP(Push) {
    const std::uint16_t v = r[e->a];  // PUSH SP pushes the old SP
    r[SP] = static_cast<std::uint16_t>(r[SP] - 2);
    A86_WRITE16(r[SP], v);
    A86_ADVANCE(2);
    A86_NEXT(3);
  }
  A86_OP(Pop) {
    const std::uint16_t v = A86_READ16(r[SP]);
    r[SP] = static_cast<std::uint16_t>(r[SP] + 2);
    r[e->a] = v;  // POP SP keeps the popped value
    A86_ADVANCE(2);
    A86_NEXT(3);
  }

  A86_OP(Out) {
    if (e->imm == kPortTone) {
      tone_ = r[e->a];
    } else if (e->imm == kPortDebug && debug_log_.size() < kDebugLogCap) {
      debug_log_.push_back(r[e->a]);  // diagnostic only: not hashed
    }
    A86_ADVANCE(3);
    A86_NEXT(2);
  }

  // A fill-loop head (predecode.h): its step and LOOP entries follow it
  // in the table. Every iteration but the last runs as one block store
  // when the whole loop fits in the budget and those stores neither wrap
  // past 0xFFFF nor touch the loop's own page; otherwise nothing changes
  // and the loop is stepped. Iterations before the last set no flag the
  // last one does not set again (INC keeps CF, which no iteration sets).
#if RTCT_A86_DISPATCH_GOTO
h_Fill:
#else
      case kXFillB:
      case kXFillW:
#endif
  {
    const Decoded& step = e[3];
    const bool inc = step.op == kInc;
    const std::uint16_t stride = inc ? 1 : step.imm;
    const int iteration_cycles = inc ? 3 + 1 + 2 : 3 + 2 + 2;  // store, step, LOOP
    const unsigned width = e->op == kXFillW ? 2 : 1;
    const std::uint32_t iters = emu::loop_iterations(r[CX]);
    const std::uint32_t first = static_cast<std::uint32_t>(r[e->a]) + e->imm;
    if (iters >= 2 && static_cast<std::int64_t>(iters) * iteration_cycles <= left) {
      const std::uint64_t last = emu::fill_last_byte(first, iters - 1, stride, width);
      const std::uint32_t loop_page = ip >> emu::kPageShift;
      if (last <= 0xFFFF &&
          (last >> emu::kPageShift < loop_page || first >> emu::kPageShift > loop_page)) {
        emu::block_fill(mem, first, iters - 1, stride, width, r[e->b],
                        [&page_state](std::uint32_t p) { page_state[p] = kPageWritten; });
        r[e->a] = static_cast<std::uint16_t>(r[e->a] + (iters - 1) * stride);
        r[CX] = 1;
        left -= static_cast<int>(iters - 1) * iteration_cycles;
      }
    }
    if (e->op == kXFillB) goto store_byte;
    goto store_word;
  }

#if RTCT_A86_DISPATCH_GOTO
h_BadReg:
  A86_ADVANCE(e->len);
  fault = Fault::kBadReg;
  goto done;
h_Straddle:  // the entry ends in the next page: decode live
  live = decode_at(mem, ip);
  e = &live;
  goto* kDispatch[e->op];
h_Bad:
  A86_ADVANCE(1);
  fault = Fault::kBadOpcode;
  goto done;
#else
      case kXBadReg:
        A86_ADVANCE(e->len);
        fault = Fault::kBadReg;
        goto done;
      case kXStraddle:  // ends in the next page: decode live
        live = decode_at(mem, ip);
        e = &live;
        goto redispatch;
      default:
        A86_ADVANCE(1);
        fault = Fault::kBadOpcode;
        goto done;
    }
  }
#endif

over_budget:
  fault = Fault::kBudgetExceeded;
done:
  std::copy(std::begin(r), std::end(r), std::begin(regs_));
  ip_ = ip;
  zf_ = zf;
  sf_ = sf;
  cf_ = cf;
  fault_ = fault;
  std::uint64_t* const dirty = state_.dirty_bitmap();
  for (std::size_t p = 0; p < std::size(page_state); p += 8) {
    std::uint64_t eight;  // skip runs of eight pages none of which was stored to
    std::memcpy(&eight, page_state + p, sizeof eight);
    if ((eight & (kPageWritten * 0x0101010101010101ull)) == 0) continue;
    for (std::size_t q = p; q < p + 8; ++q) {
      if (page_state[q] != kPageWritten) continue;
      code_valid_[q >> 6] &= ~(1ull << (q & 63));
      dirty[q >> 6] |= 1ull << (q & 63);
    }
  }
  return cycle_budget - left;

#undef A86_SETZS
#undef A86_ADVANCE
#undef A86_READ16
#undef A86_WRITE8
#undef A86_WRITE16
#undef A86_FETCH
#undef A86_OP
#undef A86_NEXT
#undef A86_ALU_ADD
#undef A86_ALU_SUB
#undef A86_ALU_LOGIC
#undef A86_ALU_SHL
#undef A86_ALU_SHR
#undef A86_ALU_MUL
#undef A86_JCC
}

bool Agent86Machine::load_state(std::span<const std::uint8_t> data) {
  Header h{};
  const auto written = state_.load(data, h);
  if (!written) return false;
  std::copy(std::begin(h.regs), std::end(h.regs), std::begin(regs_));
  ip_ = h.ip;
  zf_ = (h.flags & 1) != 0;
  sf_ = (h.flags & 2) != 0;
  cf_ = (h.flags & 4) != 0;
  fault_ = static_cast<Fault>(h.fault);
  tone_ = h.tone;
  frame_ = static_cast<FrameNo>(h.frame);
  predecode_->revalidate(*written, state_.mem(), code_valid_);
  debug_log_.clear();
  return true;
}

}  // namespace rtct::a86
