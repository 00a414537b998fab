#include "src/emu/cpu.h"

#include "src/emu/fill_loop.h"

// Threaded (computed-goto) dispatch is a GNU extension; CMake defines
// RTCT_THREADED_DISPATCH (option of the same name, default ON) and the
// portable switch backend is the fallback everywhere else.
#if defined(RTCT_THREADED_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
#define RTCT_DISPATCH_GOTO 1
#else
#define RTCT_DISPATCH_GOTO 0
#endif

namespace rtct::emu {

const char* dispatch_backend_name() {
#if RTCT_DISPATCH_GOTO
  return "computed-goto";
#else
  return "switch";
#endif
}

const char* fault_name(Fault f) {
  switch (f) {
    case Fault::kNone: return "none";
    case Fault::kBadOpcode: return "bad-opcode";
    case Fault::kRomWrite: return "rom-write";
    case Fault::kBudgetExceeded: return "budget-exceeded";
    case Fault::kBrk: return "brk";
  }
  return "?";
}

namespace {

/// Runs all but the last iteration of the fill loop whose marked head entry
/// is `head` (the ADDI, SUBI and JNZ entries follow it in the table) as
/// one block store, and returns the cycles those iterations cost. Returns
/// 0, having changed nothing, when the loop must be stepped instead: it
/// runs once, it does not fit in `cycles_left`, or its stores before the
/// last would leave RAM (below kRamBase, or wrapping past 0xFFFF). The
/// predecode already ruled out aliased registers. The caller sets the
/// flags the skipped iterations leave behind.
int fill_all_but_last(std::uint16_t* regs, std::uint8_t* mem, std::uint64_t* dirty_bitmap,
                      const PredecodedRom::Entry* head, int cycles_left) {
  const int ptr = head->a & 0xF;
  const int counter = head[2 * kInstrBytes].a & 0xF;
  const std::uint16_t stride = head[kInstrBytes].imm;
  const unsigned width = head->op == PredecodedRom::kFillStw ? 2 : 1;
  const std::uint32_t iters = loop_iterations(regs[counter]);
  const std::uint32_t first = static_cast<std::uint32_t>(regs[ptr]) + head->c;
  if (iters < 2 ||
      static_cast<std::int64_t>(iters) * PredecodedRom::kFillIterationCycles > cycles_left ||
      first < kRamBase || fill_last_byte(first, iters - 1, stride, width) > 0xFFFF) {
    return 0;
  }
  const std::uint16_t value = regs[head->b & 0xF];
  block_fill(mem, first, iters - 1, stride, width, value, [dirty_bitmap](std::uint32_t p) {
    const std::uint32_t page = p - (kRamBase >> kPageShift);
    dirty_bitmap[page >> 6] |= 1ull << (page & 63);
  });
  regs[ptr] = static_cast<std::uint16_t>(regs[ptr] + (iters - 1) * stride);
  regs[counter] = 1;
  return static_cast<int>(iters - 1) * PredecodedRom::kFillIterationCycles;
}

}  // namespace

void Cpu::reset(std::uint16_t entry, std::uint16_t initial_sp) {
  for (auto& r : regs_) r = 0;
  regs_[kSpReg] = initial_sp;
  pc_ = entry;
  z_ = n_ = c_ = false;
  halted_ = false;
  fault_ = Fault::kNone;
}

void Cpu::restore(const RawState& s) {
  for (int i = 0; i < kNumRegs; ++i) regs_[i] = s.regs[i];
  pc_ = s.pc;
  z_ = (s.flags & 1) != 0;
  n_ = (s.flags & 2) != 0;
  c_ = (s.flags & 4) != 0;
  fault_ = static_cast<Fault>(s.fault);
  halted_ = false;
}

int Cpu::run_frame(Bus& bus, int cycle_budget) {
  if (fault_ != Fault::kNone) return 0;
  halted_ = false;
  int used = 0;
  while (!halted_ && fault_ == Fault::kNone) {
    std::uint8_t raw[4];
    raw[0] = bus.read8(pc_);
    raw[1] = bus.read8(static_cast<std::uint16_t>(pc_ + 1));
    raw[2] = bus.read8(static_cast<std::uint16_t>(pc_ + 2));
    raw[3] = bus.read8(static_cast<std::uint16_t>(pc_ + 3));
    if (!is_valid_opcode(raw[0])) {
      fault_ = Fault::kBadOpcode;
      break;
    }
    const Instr ins = decode(raw);
    pc_ = static_cast<std::uint16_t>(pc_ + kInstrBytes);
    exec(bus, ins);
    used += cycle_cost(ins.op);
    if (used > cycle_budget) {
      fault_ = Fault::kBudgetExceeded;
      break;
    }
  }
  return used;
}

// The fast interpreter. Same observable semantics as run_frame/exec above,
// instruction for instruction — the reference implementation is the spec,
// and emu_differential_test holds the two to per-frame digest equality.
// What changes is purely mechanical cost:
//   * fetch: `e` points at the PredecodedRom entry while pc is below the
//     table's limit (the loaded image, capped at the ROM/RAM boundary);
//     the byte path (the zero tail of ROM above the image, the ROM/RAM
//     boundary, execute-from-RAM, 16-bit wraparound) decodes into one
//     local entry and points `e` there. Handlers read their operands
//     through `e`;
//   * dispatch: computed goto (RTCT_DISPATCH_GOTO) or a switch on the
//     entry's op: the raw opcode byte, or a fill marker only the table
//     holds. An undefined opcode lands on h_Bad (the switch's default), so
//     the fetch never tests validity;
//   * fill loops: at a marked head (PredecodedRom), fill_all_but_last runs
//     every iteration but the last as one block store when that is exact,
//     and the STB/STW handler then runs the last iteration's store, so its
//     fault and the loop's fall-through come from the ordinary handlers;
//   * every handler ends in its own budget check, fetch and dispatch. Only
//     the handlers that can stop the frame (HALT, BRK, the stores, CALL,
//     PUSH) test for it. The tail runs once per instruction, so it holds
//     nothing else: no operand copies, no validity or stop test
//     (docs/CORES.md, "AC16 interpreter internals");
//   * memory: raw pointer reads and an inlined write barrier replicating
//     ArcadeMachine::write8 (ROM-write rejection + dirty-page bitmap);
//     only IN/OUT still go through the virtual Bus (cold).
//
// Semantics that are easy to get wrong, preserved deliberately (and pinned
// by tests): the cycle-budget check runs AFTER the instruction executes
// and uses `used > budget` (an instruction landing exactly on the budget
// does not fault); a budget overrun overwrites any fault the same
// instruction raised (matching run_frame's unconditional check); a bad
// opcode faults BEFORE pc advances (h_Bad backs the fetch's advance out);
// CALL pushes the already-advanced pc even when the push itself faults on
// a ROM address.
int Cpu::run_frame_fast(std::uint8_t* mem, std::uint64_t* dirty_bitmap, Bus& ports,
                        const PredecodedRom& rom, int cycle_budget) {
  if (fault_ != Fault::kNone) return 0;

  int used = 0;
  std::uint16_t pc = pc_;
  bool z = z_, n = n_, c = c_;
  bool halted = false;
  Fault fault = Fault::kNone;
  const PredecodedRom::Entry* const entries = rom.entries.data();
  // 16 bits like pc: a 64-bit bound made GCC merge two more dispatch tails.
  const auto limit = static_cast<std::uint16_t>(rom.limit());
  PredecodedRom::Entry live;               // the byte path's decoded instruction
  const PredecodedRom::Entry* e = nullptr;  // the instruction being executed

  // The devirtualized bus.
  auto fb_write8 = [&](std::uint16_t addr, std::uint8_t v) -> bool {
    if (addr < kRamBase) return false;
    mem[addr] = v;
    const auto page = static_cast<std::size_t>(addr - kRamBase) >> kPageShift;
    dirty_bitmap[page >> 6] |= 1ull << (page & 63);
    return true;
  };
  auto fb_read16 = [&](std::uint16_t addr) -> std::uint16_t {
    return static_cast<std::uint16_t>(
        mem[addr] | (mem[static_cast<std::uint16_t>(addr + 1)] << 8));
  };
  auto fb_write16 = [&](std::uint16_t addr, std::uint16_t v) -> bool {
    return fb_write8(addr, static_cast<std::uint8_t>(v & 0xFF)) &&
           fb_write8(static_cast<std::uint16_t>(addr + 1),
                     static_cast<std::uint8_t>(v >> 8));
  };
  auto fb_push16 = [&](std::uint16_t v) {
    regs_[kSpReg] = static_cast<std::uint16_t>(regs_[kSpReg] - 2);
    if (!fb_write16(regs_[kSpReg], v)) fault = Fault::kRomWrite;
  };
  auto fb_pop16 = [&]() -> std::uint16_t {
    const std::uint16_t v = fb_read16(regs_[kSpReg]);
    regs_[kSpReg] = static_cast<std::uint16_t>(regs_[kSpReg] + 2);
    return v;
  };

#define RTCT_SETZN(v)              \
  do {                             \
    const std::uint16_t zn_ = (v); \
    z = zn_ == 0;                  \
    n = (zn_ & 0x8000) != 0;       \
  } while (0)

#define RTCT_FETCH()                                                  \
  do {                                                                \
    if (pc < limit) [[likely]] {                                      \
      e = &entries[pc];                                               \
    } else {                                                          \
      live.op = mem[pc];                                              \
      live.a = mem[static_cast<std::uint16_t>(pc + 1)];               \
      live.b = mem[static_cast<std::uint16_t>(pc + 2)];               \
      live.c = mem[static_cast<std::uint16_t>(pc + 3)];               \
      live.imm = static_cast<std::uint16_t>(live.b | (live.c << 8));  \
      e = &live;                                                      \
    }                                                                 \
    pc = static_cast<std::uint16_t>(pc + kInstrBytes);                \
  } while (0)

// RTCT_CHARGE(cost): run_frame's post-instruction budget check.
// RTCT_NEXT(cost): charge, then fetch and dispatch the next instruction.
// RTCT_STOP(cost): charge, then end the frame (HALT, or a fault raised by
// the instruction).
#define RTCT_CHARGE(cost)                      \
  used += (cost);                              \
  if (used > cycle_budget) goto over_budget
#define RTCT_STOP(cost) \
  do {                  \
    RTCT_CHARGE(cost);  \
    goto done;          \
  } while (0)
#if RTCT_DISPATCH_GOTO
#define RTCT_OP(name) h_##name:
#define RTCT_NEXT(cost)     \
  do {                      \
    RTCT_CHARGE(cost);      \
    RTCT_FETCH();           \
    goto* kDispatch[e->op]; \
  } while (0)

  // Dispatch table, indexed by the raw opcode byte (every undefined
  // opcode's row is h_Bad), then the two fill markers.
#define B16 \
  &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, \
  &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad
  static const void* const kDispatch[258] = {
      /*0x00*/ &&h_Nop, &&h_Halt, &&h_Brk, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      &&h_Bad,
      /*0x10*/ &&h_Ldi, &&h_Mov, &&h_Ldb, &&h_Ldw, &&h_Stb, &&h_Stw, &&h_Bad,
      &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      &&h_Bad,
      /*0x20*/ &&h_Add, &&h_Sub, &&h_And, &&h_Or, &&h_Xor, &&h_Shl, &&h_Shr,
      &&h_Mul, &&h_Neg, &&h_Not, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      &&h_Bad,
      /*0x30*/ &&h_Addi, &&h_Subi, &&h_Andi, &&h_Ori, &&h_Xori, &&h_Shli,
      &&h_Shri, &&h_Muli, &&h_Cmp, &&h_Cmpi, &&h_Bad, &&h_Bad, &&h_Bad,
      &&h_Bad, &&h_Bad, &&h_Bad,
      /*0x40*/ &&h_Jmp, &&h_Jz, &&h_Jnz, &&h_Jc, &&h_Jnc, &&h_Jn, &&h_Jnn,
      &&h_Bad, &&h_Call, &&h_Ret, &&h_Push, &&h_Pop, &&h_Bad, &&h_Bad,
      &&h_Bad, &&h_Bad,
      /*0x50*/ &&h_In, &&h_Out, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad, &&h_Bad,
      &&h_Bad,
      /*0x60*/ B16, /*0x70*/ B16, /*0x80*/ B16, /*0x90*/ B16, /*0xA0*/ B16,
      /*0xB0*/ B16, /*0xC0*/ B16, /*0xD0*/ B16, /*0xE0*/ B16, /*0xF0*/ B16,
      /*kFillStb*/ &&h_Fill, /*kFillStw*/ &&h_Fill};
#undef B16
  static_assert(PredecodedRom::kFillStb == 0x100 && PredecodedRom::kFillStw == 0x101);

  RTCT_FETCH();
  goto* kDispatch[e->op];
#else
#define RTCT_OP(name) case static_cast<std::uint16_t>(Op::k##name):
#define RTCT_NEXT(cost) \
  RTCT_CHARGE(cost);    \
  continue

  for (;;) {
    RTCT_FETCH();
    switch (e->op) {
#endif

  RTCT_OP(Nop) { RTCT_NEXT(1); }
  RTCT_OP(Halt) {
    halted = true;
    RTCT_STOP(1);
  }
  RTCT_OP(Brk) {
    fault = Fault::kBrk;
    RTCT_STOP(1);
  }

  RTCT_OP(Ldi) {
    regs_[e->a & 0xF] = e->imm;
    RTCT_NEXT(1);
  }
  RTCT_OP(Mov) {
    const std::uint16_t v = regs_[e->b & 0xF];
    regs_[e->a & 0xF] = v;
    RTCT_SETZN(v);
    RTCT_NEXT(1);
  }
  RTCT_OP(Ldb) {
    const std::uint16_t v = mem[static_cast<std::uint16_t>(regs_[e->b & 0xF] + e->c)];
    regs_[e->a & 0xF] = v;
    RTCT_SETZN(v);
    RTCT_NEXT(2);
  }
  RTCT_OP(Ldw) {
    const std::uint16_t v =
        fb_read16(static_cast<std::uint16_t>(regs_[e->b & 0xF] + e->c));
    regs_[e->a & 0xF] = v;
    RTCT_SETZN(v);
    RTCT_NEXT(2);
  }
  RTCT_OP(Stb) store_byte: {
    if (!fb_write8(static_cast<std::uint16_t>(regs_[e->a & 0xF] + e->c),
                   static_cast<std::uint8_t>(regs_[e->b & 0xF] & 0xFF))) {
      fault = Fault::kRomWrite;
      RTCT_STOP(2);
    }
    RTCT_NEXT(2);
  }
  RTCT_OP(Stw) store_word: {
    if (!fb_write16(static_cast<std::uint16_t>(regs_[e->a & 0xF] + e->c),
                    regs_[e->b & 0xF])) {
      fault = Fault::kRomWrite;
      RTCT_STOP(2);
    }
    RTCT_NEXT(2);
  }

  RTCT_OP(Add) {
    auto& rd = regs_[e->a & 0xF];
    const std::uint32_t sum = static_cast<std::uint32_t>(rd) + regs_[e->b & 0xF];
    c = sum > 0xFFFF;
    rd = static_cast<std::uint16_t>(sum);
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Addi) {
    auto& rd = regs_[e->a & 0xF];
    const std::uint32_t sum = static_cast<std::uint32_t>(rd) + e->imm;
    c = sum > 0xFFFF;
    rd = static_cast<std::uint16_t>(sum);
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Sub) {
    auto& rd = regs_[e->a & 0xF];
    const std::uint16_t operand = regs_[e->b & 0xF];
    c = rd < operand;  // borrow
    rd = static_cast<std::uint16_t>(rd - operand);
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Subi) {
    auto& rd = regs_[e->a & 0xF];
    c = rd < e->imm;  // borrow
    rd = static_cast<std::uint16_t>(rd - e->imm);
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(And) {
    auto& rd = regs_[e->a & 0xF];
    rd = static_cast<std::uint16_t>(rd & regs_[e->b & 0xF]);
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Andi) {
    auto& rd = regs_[e->a & 0xF];
    rd = static_cast<std::uint16_t>(rd & e->imm);
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Or) {
    auto& rd = regs_[e->a & 0xF];
    rd = static_cast<std::uint16_t>(rd | regs_[e->b & 0xF]);
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Ori) {
    auto& rd = regs_[e->a & 0xF];
    rd = static_cast<std::uint16_t>(rd | e->imm);
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Xor) {
    auto& rd = regs_[e->a & 0xF];
    rd = static_cast<std::uint16_t>(rd ^ regs_[e->b & 0xF]);
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Xori) {
    auto& rd = regs_[e->a & 0xF];
    rd = static_cast<std::uint16_t>(rd ^ e->imm);
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Shl) {
    auto& rd = regs_[e->a & 0xF];
    const int s = regs_[e->b & 0xF] & 15;
    if (s > 0) {
      c = ((rd >> (16 - s)) & 1) != 0;
      rd = static_cast<std::uint16_t>(rd << s);
    }
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Shli) {
    auto& rd = regs_[e->a & 0xF];
    const int s = e->imm & 15;
    if (s > 0) {
      c = ((rd >> (16 - s)) & 1) != 0;
      rd = static_cast<std::uint16_t>(rd << s);
    }
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Shr) {
    auto& rd = regs_[e->a & 0xF];
    const int s = regs_[e->b & 0xF] & 15;
    if (s > 0) {
      c = ((rd >> (s - 1)) & 1) != 0;
      rd = static_cast<std::uint16_t>(rd >> s);
    }
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Shri) {
    auto& rd = regs_[e->a & 0xF];
    const int s = e->imm & 15;
    if (s > 0) {
      c = ((rd >> (s - 1)) & 1) != 0;
      rd = static_cast<std::uint16_t>(rd >> s);
    }
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Mul) {
    auto& rd = regs_[e->a & 0xF];
    rd = static_cast<std::uint16_t>(rd * regs_[e->b & 0xF]);
    RTCT_SETZN(rd);
    RTCT_NEXT(4);
  }
  RTCT_OP(Muli) {
    auto& rd = regs_[e->a & 0xF];
    rd = static_cast<std::uint16_t>(rd * e->imm);
    RTCT_SETZN(rd);
    RTCT_NEXT(4);
  }
  RTCT_OP(Neg) {
    auto& rd = regs_[e->a & 0xF];
    rd = static_cast<std::uint16_t>(-rd);
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }
  RTCT_OP(Not) {
    auto& rd = regs_[e->a & 0xF];
    rd = static_cast<std::uint16_t>(~rd);
    RTCT_SETZN(rd);
    RTCT_NEXT(1);
  }

  RTCT_OP(Cmp) {
    const std::uint16_t rd = regs_[e->a & 0xF];
    const std::uint16_t operand = regs_[e->b & 0xF];
    c = rd < operand;
    RTCT_SETZN(static_cast<std::uint16_t>(rd - operand));
    RTCT_NEXT(1);
  }
  RTCT_OP(Cmpi) {
    const std::uint16_t rd = regs_[e->a & 0xF];
    c = rd < e->imm;
    RTCT_SETZN(static_cast<std::uint16_t>(rd - e->imm));
    RTCT_NEXT(1);
  }

  RTCT_OP(Jmp) {
    pc = e->imm;
    RTCT_NEXT(1);
  }
  RTCT_OP(Jz) {
    if (z) pc = e->imm;
    RTCT_NEXT(1);
  }
  RTCT_OP(Jnz) {
    if (!z) pc = e->imm;
    RTCT_NEXT(1);
  }
  RTCT_OP(Jc) {
    if (c) pc = e->imm;
    RTCT_NEXT(1);
  }
  RTCT_OP(Jnc) {
    if (!c) pc = e->imm;
    RTCT_NEXT(1);
  }
  RTCT_OP(Jn) {
    if (n) pc = e->imm;
    RTCT_NEXT(1);
  }
  RTCT_OP(Jnn) {
    if (!n) pc = e->imm;
    RTCT_NEXT(1);
  }

  RTCT_OP(Call) {
    fb_push16(pc);
    pc = e->imm;
    if (fault != Fault::kNone) RTCT_STOP(3);
    RTCT_NEXT(3);
  }
  RTCT_OP(Ret) {
    pc = fb_pop16();
    RTCT_NEXT(3);
  }
  RTCT_OP(Push) {
    fb_push16(regs_[e->a & 0xF]);
    if (fault != Fault::kNone) RTCT_STOP(2);
    RTCT_NEXT(2);
  }
  RTCT_OP(Pop) {
    regs_[e->a & 0xF] = fb_pop16();
    RTCT_NEXT(2);
  }

  RTCT_OP(In) {
    const std::uint16_t v = ports.in_port(e->b);
    regs_[e->a & 0xF] = v;
    RTCT_SETZN(v);
    RTCT_NEXT(1);
  }
  RTCT_OP(Out) {
    ports.out_port(e->a, regs_[e->b & 0xF]);
    RTCT_NEXT(1);
  }

#if RTCT_DISPATCH_GOTO
h_Fill:
#else
      case PredecodedRom::kFillStb:
      case PredecodedRom::kFillStw:
#endif
  if (const int cycles = fill_all_but_last(regs_, mem, dirty_bitmap, e, cycle_budget - used)) {
    used += cycles;
    // The last skipped SUBI took the counter from 2 to 1. Its flags stand
    // if the last iteration's store faults before its own ADDI and SUBI.
    z = n = c = false;
  }
  if (e->op == PredecodedRom::kFillStb) goto store_byte;
  goto store_word;

#if !RTCT_DISPATCH_GOTO
      default:
        goto h_Bad;
    }
  }
#endif

h_Bad:
  pc = static_cast<std::uint16_t>(pc - kInstrBytes);
  fault = Fault::kBadOpcode;
  goto done;
over_budget:
  fault = Fault::kBudgetExceeded;
done:
  pc_ = pc;
  z_ = z;
  n_ = n;
  c_ = c;
  halted_ = halted;
  fault_ = fault;
  return used;

#undef RTCT_SETZN
#undef RTCT_FETCH
#undef RTCT_CHARGE
#undef RTCT_STOP
#undef RTCT_OP
#undef RTCT_NEXT
}

void Cpu::exec(Bus& bus, const Instr& ins) {
  auto& rd = regs_[ins.a & 0xF];
  const std::uint16_t rs_val = regs_[ins.b & 0xF];
  const std::uint16_t imm = ins.imm();

  switch (ins.op) {
    case Op::kNop:
      break;
    case Op::kHalt:
      halted_ = true;
      break;
    case Op::kBrk:
      fault_ = Fault::kBrk;
      break;

    case Op::kLdi:
      rd = imm;
      break;
    case Op::kMov:
      rd = rs_val;
      set_zn(rd);
      break;
    case Op::kLdb:
      rd = bus.read8(static_cast<std::uint16_t>(rs_val + ins.c));
      set_zn(rd);
      break;
    case Op::kLdw:
      rd = read16(bus, static_cast<std::uint16_t>(rs_val + ins.c));
      set_zn(rd);
      break;
    case Op::kStb:
      if (!bus.write8(static_cast<std::uint16_t>(rd + ins.c),
                      static_cast<std::uint8_t>(rs_val & 0xFF))) {
        fault_ = Fault::kRomWrite;
      }
      break;
    case Op::kStw:
      if (!write16(bus, static_cast<std::uint16_t>(rd + ins.c), rs_val)) {
        fault_ = Fault::kRomWrite;
      }
      break;

    case Op::kAdd:
    case Op::kAddi: {
      const std::uint16_t operand = ins.op == Op::kAdd ? rs_val : imm;
      const std::uint32_t sum = static_cast<std::uint32_t>(rd) + operand;
      c_ = sum > 0xFFFF;
      rd = static_cast<std::uint16_t>(sum);
      set_zn(rd);
      break;
    }
    case Op::kSub:
    case Op::kSubi: {
      const std::uint16_t operand = ins.op == Op::kSub ? rs_val : imm;
      c_ = rd < operand;  // borrow
      rd = static_cast<std::uint16_t>(rd - operand);
      set_zn(rd);
      break;
    }
    case Op::kAnd:
    case Op::kAndi:
      rd = static_cast<std::uint16_t>(rd & (ins.op == Op::kAnd ? rs_val : imm));
      set_zn(rd);
      break;
    case Op::kOr:
    case Op::kOri:
      rd = static_cast<std::uint16_t>(rd | (ins.op == Op::kOr ? rs_val : imm));
      set_zn(rd);
      break;
    case Op::kXor:
    case Op::kXori:
      rd = static_cast<std::uint16_t>(rd ^ (ins.op == Op::kXor ? rs_val : imm));
      set_zn(rd);
      break;
    case Op::kShl:
    case Op::kShli: {
      const int s = (ins.op == Op::kShl ? rs_val : imm) & 15;
      if (s > 0) {
        c_ = ((rd >> (16 - s)) & 1) != 0;
        rd = static_cast<std::uint16_t>(rd << s);
      }
      set_zn(rd);
      break;
    }
    case Op::kShr:
    case Op::kShri: {
      const int s = (ins.op == Op::kShr ? rs_val : imm) & 15;
      if (s > 0) {
        c_ = ((rd >> (s - 1)) & 1) != 0;
        rd = static_cast<std::uint16_t>(rd >> s);
      }
      set_zn(rd);
      break;
    }
    case Op::kMul:
    case Op::kMuli:
      rd = static_cast<std::uint16_t>(rd * (ins.op == Op::kMul ? rs_val : imm));
      set_zn(rd);
      break;
    case Op::kNeg:
      rd = static_cast<std::uint16_t>(-rd);
      set_zn(rd);
      break;
    case Op::kNot:
      rd = static_cast<std::uint16_t>(~rd);
      set_zn(rd);
      break;

    case Op::kCmp:
    case Op::kCmpi: {
      const std::uint16_t operand = ins.op == Op::kCmp ? rs_val : imm;
      c_ = rd < operand;
      set_zn(static_cast<std::uint16_t>(rd - operand));
      break;
    }

    case Op::kJmp:
      pc_ = imm;
      break;
    case Op::kJz:
      if (z_) pc_ = imm;
      break;
    case Op::kJnz:
      if (!z_) pc_ = imm;
      break;
    case Op::kJc:
      if (c_) pc_ = imm;
      break;
    case Op::kJnc:
      if (!c_) pc_ = imm;
      break;
    case Op::kJn:
      if (n_) pc_ = imm;
      break;
    case Op::kJnn:
      if (!n_) pc_ = imm;
      break;

    case Op::kCall:
      push16(bus, pc_);
      pc_ = imm;
      break;
    case Op::kRet:
      pc_ = pop16(bus);
      break;
    case Op::kPush:
      push16(bus, regs_[ins.a & 0xF]);
      break;
    case Op::kPop:
      rd = pop16(bus);
      break;

    case Op::kIn:
      rd = bus.in_port(ins.b);
      set_zn(rd);
      break;
    case Op::kOut:
      bus.out_port(ins.a, rs_val);
      break;
  }
}

}  // namespace rtct::emu
