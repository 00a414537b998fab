// Differential equivalence: each core's fast interpreter against its
// reference byte-fetch interpreter.
//
// A fast path is only admissible because it is bit-identical to the
// reference in *observable* state. Every test here drives two machines —
// one per backend — through the same inputs in lockstep and requires
// per-frame agreement on the v2 state digest, the fault code, and the
// cycle count (agent86 adds the v1 hash, tone and debug log), plus
// byte-identical save_state at the end.
//
// AC16 (predecoded ROM, devirtualized memory, threaded dispatch):
//   * every bundled game ROM (the benign subset of the ISA)
//   * structure-aware fuzzed ROMs (the hostile subset: wild jumps, ROM
//     stores, runaway loops, invalid opcodes — see fuzz_rom.h)
//   * hand-written regressions for the boundary semantics a fast path is
//     most tempted to get wrong: exact cycle-budget landing, partial
//     frames cut by the budget, fetch wraparound at 0xFFFD, execution
//     crossing the predecode limit into RAM, code past the end of the
//     image (the predecoded table ends with it), and self-modifying code
//     running from RAM (including a store into the instruction stream
//     currently being executed);
//   * every opcode byte 0x00–0xFF, executed from the predecoded ROM window
//     and from RAM, including the bad-opcode fault of every undefined one.
//
// agent86 (shared predecoded program pages, invalidated by stores):
//   * the bundled games, straight and on a restore-heavy schedule
//   * structure-aware random programs: self-modifying stores, wild
//     targets, bad registers and opcodes, images near 0xFFFF
//   * hand-written regressions: a store into the next instruction, a store
//     into the tail page of a straddling instruction, restoring a snapshot
//     whose code page was modified, PUSH SP, bad registers after the
//     operand fetch, the budget landing exactly, and a ZF = SF = 1
//     snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/cores/agent86/assembler.h"
#include "src/cores/agent86/games.h"
#include "src/cores/agent86/machine.h"
#include "src/emu/assembler.h"
#include "src/emu/cpu.h"
#include "src/emu/fuzz_rom.h"
#include "src/emu/isa.h"
#include "src/emu/machine.h"
#include "src/games/roms.h"

namespace rtct::emu {
namespace {

MachineConfig fast_cfg(int cycles = 100000) { return {cycles, false}; }
MachineConfig ref_cfg(int cycles = 100000) { return {cycles, true}; }

/// Runs `frames` frames on both backends with an identical seeded input
/// stream and asserts lockstep equality of digest, fault and cycle count
/// every frame, full v1 hash periodically, and save_state bytes at the end.
void expect_equivalent(const Rom& rom, int frames, int cycles_per_frame,
                       std::uint64_t input_seed, const std::string& what) {
  ArcadeMachine fast(rom, fast_cfg(cycles_per_frame));
  ArcadeMachine ref(rom, ref_cfg(cycles_per_frame));
  Rng rng(input_seed);
  for (int f = 0; f < frames; ++f) {
    const auto input = static_cast<InputWord>(rng.next_u64());
    fast.step_frame(input);
    ref.step_frame(input);
    ASSERT_EQ(fast.state_digest(2), ref.state_digest(2))
        << what << ": v2 digest diverged at frame " << f;
    ASSERT_EQ(fast.fault(), ref.fault())
        << what << ": fault diverged at frame " << f;
    ASSERT_EQ(fast.last_frame_cycles(), ref.last_frame_cycles())
        << what << ": cycle count diverged at frame " << f;
    if (f % 16 == 0) {
      ASSERT_EQ(fast.state_hash(), ref.state_hash())
          << what << ": full v1 hash diverged at frame " << f;
    }
  }
  EXPECT_EQ(fast.state_hash(), ref.state_hash()) << what;
  EXPECT_EQ(fast.save_state(), ref.save_state()) << what;
}

/// Per-instruction-visible state: fault, pc, cycles, every register, the
/// flags, the save_state bytes and the v2 digest.
void expect_same_cpu(const ArcadeMachine& fast, const ArcadeMachine& ref) {
  EXPECT_EQ(fast.fault(), ref.fault());
  EXPECT_EQ(fast.cpu().pc(), ref.cpu().pc());
  EXPECT_EQ(fast.last_frame_cycles(), ref.last_frame_cycles());
  for (int r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(fast.cpu().reg(r), ref.cpu().reg(r)) << "r" << r;
  }
  EXPECT_EQ(fast.cpu().flag_z(), ref.cpu().flag_z());
  EXPECT_EQ(fast.cpu().flag_n(), ref.cpu().flag_n());
  EXPECT_EQ(fast.cpu().flag_c(), ref.cpu().flag_c());
  EXPECT_EQ(fast.save_state(), ref.save_state());
  EXPECT_EQ(fast.state_digest(2), ref.state_digest(2));
}

/// Steps both backends `frames` frames and compares expect_same_cpu after
/// every one.
void expect_same_cpu_every_frame(const Rom& rom, int frames, const std::string& what,
                                 int cycles = 100000) {
  ArcadeMachine fast(rom, fast_cfg(cycles));
  ArcadeMachine ref(rom, ref_cfg(cycles));
  for (int f = 0; f < frames; ++f) {
    SCOPED_TRACE(::testing::Message() << what << ", frame " << f);
    const auto input = static_cast<InputWord>(0x0301 * (f + 1));
    fast.step_frame(input);
    ref.step_frame(input);
    expect_same_cpu(fast, ref);
    if (::testing::Test::HasFailure()) return;
  }
}

Rom must_assemble(const char* source, const char* title) {
  auto result = assemble(source, title);
  EXPECT_TRUE(result.ok()) << result.error_text();
  return std::move(result.rom);
}

// ---------------------------------------------------------------------------
// Bundled games

class GameDifferential : public ::testing::TestWithParam<std::string_view> {};

TEST_P(GameDifferential, FastAndReferenceAgreeFrameByFrame) {
  const Rom* rom = games::rom_by_name(GetParam());
  ASSERT_NE(rom, nullptr);
  expect_equivalent(*rom, 240, 100000, 0xD1FF0000 + rom->checksum(),
                    std::string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllGames, GameDifferential,
                         ::testing::ValuesIn(games::game_names()),
                         [](const auto& param_info) {
                           return std::string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// Fuzzed ROMs

TEST(FuzzDifferential, StructureAwareRandomRomsAgree) {
  // A small per-frame budget keeps runaway seeds cheap (they budget-fault
  // on frame 1 and stay stopped) while still letting tame seeds produce
  // many frames of real execution.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Rom rom = make_fuzz_rom(seed);
    expect_equivalent(rom, 90, 20000, seed ^ 0xF00D, rom.title);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FuzzDifferential, GeneratorReachesTheCasesItIsFor) {
  // Guards the generator against dropping its fill loops: over the seeds
  // above, some ROMs must hold a marked fill-loop head, and some a loop of
  // the same shape left unmarked because its registers alias.
  int marked = 0, aliased = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Rom rom = make_fuzz_rom(seed);
    const PredecodedRom table(rom.image);
    bool has_marked = false, has_aliased = false;
    for (std::size_t head = 0; head + 4 * kInstrBytes <= table.entries.size(); ++head) {
      const auto& e = table.entries;
      if (e[head].op > 0xFF) has_marked = true;
      const bool store = e[head].op == static_cast<std::uint16_t>(Op::kStb) ||
                         e[head].op == static_cast<std::uint16_t>(Op::kStw);
      const auto& branch = e[head + 3 * kInstrBytes];
      if (store && branch.op == static_cast<std::uint16_t>(Op::kJnz) && branch.imm == head &&
          e[head + kInstrBytes].op == static_cast<std::uint16_t>(Op::kAddi)) {
        has_aliased = true;
      }
    }
    marked += has_marked ? 1 : 0;
    aliased += has_aliased ? 1 : 0;
  }
  EXPECT_GT(marked, 20);
  EXPECT_GT(aliased, 3);
}

// ---------------------------------------------------------------------------
// Cycle-budget boundary
//
// Frame 1 of this ROM costs exactly 4 cycles (3x LDI + HALT, 1 cycle each).

constexpr const char* kFourCycleFrame = R"(
.entry main
main:
    LDI r0, 1
    LDI r1, 2
    LDI r2, 3
    HALT
    JMP main
)";

TEST(CycleBudgetDifferential, LandingExactlyOnBudgetDoesNotFault) {
  const Rom rom = must_assemble(kFourCycleFrame, "budget-exact");
  // The budget check is strictly `used > budget`: spending the whole
  // budget to the last cycle is legal.
  for (const bool reference : {false, true}) {
    ArcadeMachine m(rom, {4, reference});
    m.step_frame(0);
    EXPECT_EQ(m.fault(), Fault::kNone) << "reference=" << reference;
    EXPECT_EQ(m.last_frame_cycles(), 4) << "reference=" << reference;
  }
}

TEST(CycleBudgetDifferential, OneCycleShortFaultsIdentically) {
  const Rom rom = must_assemble(kFourCycleFrame, "budget-short");
  ArcadeMachine fast(rom, {3, false});
  ArcadeMachine ref(rom, {3, true});
  fast.step_frame(0);
  ref.step_frame(0);
  EXPECT_EQ(fast.fault(), Fault::kBudgetExceeded);
  EXPECT_EQ(ref.fault(), Fault::kBudgetExceeded);
  // The HALT *executed* (exec-then-check); the budget fault lands after.
  EXPECT_EQ(fast.save_state(), ref.save_state());
  EXPECT_EQ(fast.state_hash(), ref.state_hash());
}

TEST(CycleBudgetDifferential, PartialFrameStateIsIdenticalOnBothBackends) {
  const Rom rom = must_assemble(kFourCycleFrame, "budget-partial");
  ArcadeMachine fast(rom, {2, false});
  ArcadeMachine ref(rom, {2, true});
  fast.step_frame(0);
  ref.step_frame(0);
  for (ArcadeMachine* m : {&fast, &ref}) {
    EXPECT_EQ(m->fault(), Fault::kBudgetExceeded);
    // Instructions execute before the budget check, so the third LDI's
    // write is visible in the faulted state.
    EXPECT_EQ(m->cpu().reg(2), 3);
    EXPECT_EQ(m->last_frame_cycles(), 3);
  }
  EXPECT_EQ(fast.save_state(), ref.save_state());
  EXPECT_EQ(fast.state_hash(), ref.state_hash());
}

// ---------------------------------------------------------------------------
// Fetch wraparound at the top of the address space
//
// The program stores an LDI opcode at 0xFFFD–0xFFFF and jumps there; the
// fourth instruction byte wraps around to mem[0x0000], which the ROM pins
// to 0x12. Executing it yields r1 = 0x1234 and pc wraps to 0x0001, where
// the ROM plants a HALT.

Rom wraparound_rom() {
  std::vector<std::uint8_t> image;
  auto emit = [&image](std::uint8_t b0, std::uint8_t b1, std::uint8_t b2,
                       std::uint8_t b3) {
    image.insert(image.end(), {b0, b1, b2, b3});
  };
  const auto ldi = static_cast<std::uint8_t>(Op::kLdi);
  const auto stb = static_cast<std::uint8_t>(Op::kStb);
  const auto jmp = static_cast<std::uint8_t>(Op::kJmp);
  const auto halt = static_cast<std::uint8_t>(Op::kHalt);
  image.push_back(0x12);          // mem[0x0000]: wrapped imm-high byte
  image.push_back(halt);          // mem[0x0001]: HALT (pc lands here post-wrap)
  image.insert(image.end(), {0, 0, 0});
  image.push_back(jmp);           // mem[0x0005]: JMP 0x0001 (steady state)
  image.insert(image.end(), {0, 0x01, 0x00});
  image.insert(image.end(), {0, 0, 0});  // pad to 0x000C
  EXPECT_EQ(image.size(), 12u);
  emit(ldi, 0, 0xFD, 0xFF);       // 0x000C: LDI r0, 0xFFFD
  emit(ldi, 2, ldi, 0x00);        //         LDI r2, <LDI opcode>
  emit(stb, 0, 2, 0);             //         mem[0xFFFD] = LDI
  emit(ldi, 2, 0x01, 0x00);       //         LDI r2, 1   (target register)
  emit(stb, 0, 2, 1);             //         mem[0xFFFE] = r1
  emit(ldi, 2, 0x34, 0x00);       //         LDI r2, 0x34 (imm-low byte)
  emit(stb, 0, 2, 2);             //         mem[0xFFFF] = 0x34
  emit(jmp, 0, 0xFD, 0xFF);       //         JMP 0xFFFD
  Rom rom;
  rom.title = "wraparound";
  rom.image = std::move(image);
  rom.entry = 0x000C;
  return rom;
}

TEST(FetchWraparoundDifferential, InstructionAt0xFFFDWrapsToRomByteZero) {
  const Rom rom = wraparound_rom();
  for (const bool reference : {false, true}) {
    ArcadeMachine m(rom, {100000, reference});
    m.step_frame(0);
    EXPECT_EQ(m.fault(), Fault::kNone) << "reference=" << reference;
    EXPECT_EQ(m.cpu().reg(1), 0x1234) << "reference=" << reference;
    EXPECT_EQ(m.cpu().pc(), 0x0005) << "reference=" << reference;
  }
  expect_equivalent(rom, 8, 100000, 0xABCD, "wraparound");
}

// ---------------------------------------------------------------------------
// Predecode boundary: the cache covers pc < 0x7FFD (a 4-byte fetch window
// entirely inside ROM). An instruction *starting* at 0x7FFD reads its
// final byte from RAM at 0x8000, which the program controls — the fast
// path must take the byte-fetch fallback there.

TEST(PredecodeBoundaryDifferential, FetchWindowCrossingIntoRamSeesRamBytes) {
  const auto ldi = static_cast<std::uint8_t>(Op::kLdi);
  std::vector<std::uint8_t> image(0x8000, 0);
  // 0x7FFD: LDI r7, 0x??34 — the imm-high byte lives at 0x8000 (RAM).
  image[0x7FFD] = ldi;
  image[0x7FFE] = 7;
  image[0x7FFF] = 0x34;
  // Entry code: poke 0x8000 = 0x77 (imm-high) and 0x8001 = HALT opcode,
  // then jump to the boundary instruction.
  const char* prologue = R"(
.entry main
main:
    LDI r0, 0x8000
    LDI r1, 0x77
    STB r0, r1
    LDI r1, 0x01      ; HALT opcode
    STB r0, r1, 1
    JMP 0x7FFD
)";
  const Rom pro = must_assemble(prologue, "boundary-prologue");
  ASSERT_LE(pro.image.size(), 0x7FDu);
  std::copy(pro.image.begin(), pro.image.end(), image.begin());
  Rom rom;
  rom.title = "predecode-boundary";
  rom.image = std::move(image);
  rom.entry = pro.entry;

  for (const bool reference : {false, true}) {
    ArcadeMachine m(rom, {100000, reference});
    m.step_frame(0);
    EXPECT_EQ(m.fault(), Fault::kNone) << "reference=" << reference;
    // The boundary instruction assembled to LDI r7, 0x7734 and pc moved
    // into RAM (0x8001) where the planted HALT ended the frame.
    EXPECT_EQ(m.cpu().reg(7), 0x7734) << "reference=" << reference;
    EXPECT_EQ(m.cpu().pc(), 0x8005) << "reference=" << reference;
  }
  // Frame 2 resumes at 0x8005 inside zero-filled RAM: a NOP sled that
  // wraps and eventually exceeds the budget. Whatever the exact outcome,
  // both backends must agree on it.
  expect_equivalent(rom, 3, 100000, 0x5EED, "predecode-boundary");
}

// ---------------------------------------------------------------------------
// The predecoded table ends with the image
//
// PredecodedRom holds min(image size, kLimit) entries. Code past the image
// (the zero-filled rest of ROM, which decodes as NOPs) and every address in
// [kLimit, kRamBase) take the byte path, and an entry whose fetch window
// runs past the image must read zeros there. Each ROM below ends its frame
// on HALT opcodes it stores at 0x8000–0x8003, followed by a JMP 0 that
// restarts it next frame.

/// Stores HALT opcodes at 0x8000–0x8003 and a JMP 0 at 0x8004.
constexpr const char* kHaltPad = R"(
    LDI r0, 0x8000
    LDI r1, 0x0101      ; two HALT opcodes
    STW r0, r1
    STW r0, r1, 2
    LDI r1, 0x40        ; JMP opcode; its target bytes stay zero
    STB r0, r1, 4
    ADDI r2, 1          ; frames run
)";

Rom assemble_with_pad(const std::string& body, const char* title) {
  const std::string source = std::string(".entry main\nmain:\n") + kHaltPad + body;
  return must_assemble(source.c_str(), title);
}

void expect_table_ends_with_image(const Rom& rom) {
  EXPECT_EQ(PredecodedRom(rom.image).entries.size(),
            std::min<std::size_t>(rom.image.size(), PredecodedRom::kLimit))
      << rom.title;
}

TEST(PredecodeTable, HoldsOneEntryPerImageByteUpToTheLimit) {
  for (const auto name : games::game_names()) {
    expect_table_ends_with_image(*games::rom_by_name(name));
  }
  for (const std::size_t size : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                                 std::size_t{0x7FFC}, std::size_t{0x7FFD},
                                 std::size_t{0x7FFE}, std::size_t{0x8000}}) {
    Rom rom;
    rom.title = "size-" + std::to_string(size);
    rom.image.resize(size);
    for (std::size_t i = 0; i < size; ++i) rom.image[i] = static_cast<std::uint8_t>(i * 7 + 1);
    const PredecodedRom table(rom.image);
    ASSERT_EQ(table.entries.size(), std::min<std::size_t>(size, PredecodedRom::kLimit));
    // Every entry decodes the image with zeros past its end.
    for (std::size_t addr = 0; addr < table.entries.size(); ++addr) {
      std::uint8_t window[kInstrBytes] = {};
      for (std::size_t k = 0; k < kInstrBytes && addr + k < size; ++k) {
        window[k] = rom.image[addr + k];
      }
      const PredecodedRom::Entry& e = table.entries[addr];
      ASSERT_EQ(e.op, window[0]) << rom.title << " @" << addr;
      ASSERT_EQ(e.a, window[1]) << rom.title << " @" << addr;
      ASSERT_EQ(e.b, window[2]) << rom.title << " @" << addr;
      ASSERT_EQ(e.c, window[3]) << rom.title << " @" << addr;
      ASSERT_EQ(e.imm, window[2] | (window[3] << 8)) << rom.title << " @" << addr;
    }
  }
}

TEST(PredecodeTableDifferential, CodeRunsOffTheImageIntoTheZeroTail) {
  // No jump: after the pad, execution slides through ~8 K NOPs of zero ROM
  // and reaches the HALT at 0x8000.
  const Rom rom = assemble_with_pad("", "off-the-end");
  expect_table_ends_with_image(rom);
  for (const bool reference : {false, true}) {
    ArcadeMachine m(rom, {100000, reference});
    for (int f = 1; f <= 3; ++f) {
      m.step_frame(0);
      EXPECT_EQ(m.fault(), Fault::kNone) << "reference=" << reference;
      EXPECT_EQ(m.cpu().pc(), 0x8004) << "reference=" << reference;
      EXPECT_EQ(m.cpu().reg(2), f) << "reference=" << reference;
    }
  }
  expect_same_cpu_every_frame(rom, 6, "off-the-end");
}

TEST(PredecodeTableDifferential, InstructionStraddlingTheImageEndReadsZeros) {
  // The last instruction is LDI r3, 0xABCD cut after `kept` bytes: the
  // bytes past the image read as zero, so it executes as LDI r0, 0
  // (kept = 1), LDI r3, 0 (2) or LDI r3, 0x00CD (3); kept = 4 is whole.
  const std::uint16_t want[] = {0, 0x0000, 0x00CD, 0xABCD};
  for (int kept = 1; kept <= 4; ++kept) {
    std::string body = "    LDI r3, 0x7777\n    .byte 0x10";
    const char* tail[] = {", 3", ", 0xCD", ", 0xAB"};
    for (int k = 1; k < kept; ++k) body += tail[k - 1];
    body += "\n";
    const std::string title = "straddle-" + std::to_string(kept);
    const Rom rom = assemble_with_pad(body, title.c_str());
    ASSERT_EQ(rom.image.size() % kInstrBytes, static_cast<std::size_t>(kept % 4)) << title;
    expect_table_ends_with_image(rom);
    for (const bool reference : {false, true}) {
      ArcadeMachine m(rom, {100000, reference});
      m.step_frame(0);
      EXPECT_EQ(m.fault(), Fault::kNone) << title << " reference=" << reference;
      EXPECT_EQ(m.cpu().reg(kept == 1 ? 0 : 3), want[kept - 1])
          << title << " reference=" << reference;
    }
    expect_same_cpu_every_frame(rom, 4, title);
  }
}

TEST(PredecodeTableDifferential, JumpPastTheImageEnd) {
  // The pad plus the JMP is 8 instructions, so the image ends at 0x0020.
  // Targets of every alignment: the first bytes past the image, the middle
  // of the zero tail, the last table-sized window (0x7FFC) and the three
  // windows that cross into RAM (0x7FFD = kLimit onwards).
  for (const std::uint16_t target :
       {0x0020, 0x0021, 0x0022, 0x0023, 0x4000, 0x7FFC, 0x7FFD, 0x7FFE, 0x7FFF}) {
    char title[16];
    std::snprintf(title, sizeof title, "jump-%04X", static_cast<unsigned>(target));
    const Rom rom = assemble_with_pad("    JMP " + std::to_string(target) + "\n", title);
    ASSERT_EQ(rom.image.size(), 0x20u);
    expect_table_ends_with_image(rom);
    // The sled reaches 0x8000 + (target mod 4), where a HALT sits.
    const auto halt_pc = static_cast<std::uint16_t>(0x8000 + (target & 3) + kInstrBytes);
    for (const bool reference : {false, true}) {
      ArcadeMachine m(rom, {100000, reference});
      m.step_frame(0);
      EXPECT_EQ(m.fault(), Fault::kNone) << title << " reference=" << reference;
      EXPECT_EQ(m.cpu().pc(), halt_pc) << title << " reference=" << reference;
    }
    expect_same_cpu_every_frame(rom, 4, title);
  }
}

TEST(PredecodeTableDifferential, FullImageDecodesAboveTheLimitLive) {
  // A 32 KiB image: the table covers [0, kLimit) and stops there. The
  // program runs the table's last aligned instructions, then LDI r7 at
  // 0x7FFD, whose imm-high byte is RAM 0x8000. Each frame stores the frame
  // counter's low byte there, so a window decoded once would go stale.
  const Rom pro = must_assemble(R"(
.entry main
main:
    LDI r0, 0x8000
    IN r1, 2            ; frame counter, low 16 bits
    STB r0, r1
    LDI r1, 0x01        ; HALT at 0x8001
    STB r0, r1, 1
    LDI r1, 0x40        ; JMP 0 at 0x8005
    STB r0, r1, 5
    ADDI r2, 1
    JMP 0x7FF4
)", "full-image-prologue");
  std::vector<std::uint8_t> image(0x8000, 0);
  std::copy(pro.image.begin(), pro.image.end(), image.begin());
  encode(Instr{Op::kLdi, 5, 0x5A, 0x5A}, &image[0x7FF4]);  // table entry
  encode(Instr{Op::kJmp, 0, 0xFD, 0x7F}, &image[0x7FF8]);  // table entry: JMP 0x7FFD
  image[0x7FFD] = static_cast<std::uint8_t>(Op::kLdi);     // LDI r7, 0x??34
  image[0x7FFE] = 7;
  image[0x7FFF] = 0x34;
  Rom rom;
  rom.title = "full-image";
  rom.image = std::move(image);
  rom.entry = pro.entry;
  ASSERT_EQ(PredecodedRom(rom.image).limit(), PredecodedRom::kLimit);

  for (const bool reference : {false, true}) {
    ArcadeMachine m(rom, {100000, reference});
    for (int f = 0; f < 3; ++f) {
      m.step_frame(0);
      EXPECT_EQ(m.fault(), Fault::kNone) << "reference=" << reference;
      EXPECT_EQ(m.cpu().reg(5), 0x5A5A) << "reference=" << reference;
      EXPECT_EQ(m.cpu().reg(7), (f << 8) | 0x34) << "reference=" << reference;
      EXPECT_EQ(m.cpu().pc(), 0x8005) << "reference=" << reference;
    }
  }
  expect_same_cpu_every_frame(rom, 6, "full-image");
}

// ---------------------------------------------------------------------------
// Execute-from-RAM with self-modifying code
//
// The ROM copies a 24-byte program into RAM at 0x9000 and jumps there.
// The RAM program stores 0xCC into 0x900E — the imm-low byte of the *next*
// instruction in its own stream — so the subsequently executed LDI loads
// 0xCC, not the 0xBB the ROM shipped. Byte-accurate fetch from mutable
// memory is exactly what the predecode cache must NOT shortcut.

constexpr const char* kSelfModifySource = R"(
.entry main
blob:                       ; copied to 0x9000, then executed there
    LDI r3, 0xAAAA          ; 0x9000
    LDI r5, 0xCC            ; 0x9004
    STB r6, r5              ; 0x9008: mem[0x900E] = 0xCC (next instr's imm)
    LDI r4, 0xBB            ; 0x900C: imm byte at 0x900E mutates to 0xCC
    HALT                    ; 0x9010
    JMP 0x9000              ; 0x9014 (steady state: loop the RAM program)
main:
    LDI r0, blob
    LDI r1, 0x9000
    LDI r2, 24
copy:
    LDB r4, r0
    STB r1, r4
    ADDI r0, 1
    ADDI r1, 1
    SUBI r2, 1
    JNZ copy
    LDI r6, 0x900E
    JMP 0x9000
)";

TEST(ExecuteFromRamDifferential, SelfModifyingRamCodeAgrees) {
  const Rom rom = must_assemble(kSelfModifySource, "self-modify");
  for (const bool reference : {false, true}) {
    ArcadeMachine m(rom, {100000, reference});
    m.step_frame(0);
    EXPECT_EQ(m.fault(), Fault::kNone) << "reference=" << reference;
    EXPECT_EQ(m.cpu().reg(3), 0xAAAA) << "reference=" << reference;
    // The store into the executing stream landed before the fetch.
    EXPECT_EQ(m.cpu().reg(4), 0xCC) << "reference=" << reference;
    EXPECT_EQ(m.peek(0x900E), 0xCC) << "reference=" << reference;
  }
  expect_equivalent(rom, 12, 100000, 0x5E1F, "self-modify");
}

// The reverse direction: a snapshot round-trip must land both backends in
// the same state even when taken mid-divergence-sensitive RAM execution.
TEST(ExecuteFromRamDifferential, SnapshotRoundTripAcrossBackends) {
  const Rom rom = must_assemble(kSelfModifySource, "self-modify-snap");
  ArcadeMachine fast(rom, fast_cfg());
  fast.step_frame(1);
  fast.step_frame(2);
  const auto snap = fast.save_state();
  // Restore the fast machine's snapshot into a *reference* machine and run
  // both onward: cross-backend resume must stay in lockstep.
  ArcadeMachine ref(rom, ref_cfg());
  ASSERT_TRUE(ref.load_state(snap));
  for (int f = 0; f < 6; ++f) {
    const auto input = static_cast<InputWord>(7 * f + 1);
    fast.step_frame(input);
    ref.step_frame(input);
    ASSERT_EQ(fast.state_digest(2), ref.state_digest(2)) << "frame " << f;
  }
  EXPECT_EQ(fast.save_state(), ref.save_state());
}

// ---------------------------------------------------------------------------
// Every opcode byte, from ROM and from RAM
//
// Each of the 256 opcode bytes runs once inside the predecoded ROM window
// and once from RAM (the byte-fetch path), after a prologue that loads
// every register and leaves N and C set. Per run both backends must agree
// on the fault, pc, cycles, registers, flags and state bytes, and the
// opcode must fault as bad exactly when is_valid_opcode rejects it. This
// pins the fast path's rule that an undefined opcode reaches the
// bad-opcode handler through its dispatch table, which then backs pc up
// to the opcode: a table row that disagrees with is_valid_opcode, or a
// bad-opcode fault that leaves pc past the opcode, fails here.

/// One operand set for the opcode under test, and the register values the
/// prologue loads (r15 is the stack pointer).
struct OpcodeProbe {
  const char* name;
  std::uint8_t a, b, c;
  std::uint16_t regs[kNumRegs];
};

// "ram": stores, loads, the stack and jump targets stay in RAM or on the
// image's HALT filler; register shifts go by 5. "rom": stores and pushes
// hit ROM and fault, jumps land in zero-filled RAM and run into the
// budget; register shifts go by 15.
constexpr OpcodeProbe kOpcodeProbes[] = {
    {"ram", 1, 2, 0x03,
     {0x0005, 0x8123, 0x9005, 0x1234, 0x8000, 0x7FFF, 0xFFFF, 0x0001, 0x00F0,
      0x0F00, 0xAAAA, 0x5555, 0x0100, 0x4000, 0x0002, 0xFFFE}},
    {"rom", 3, 4, 0xFF,
     {0x0005, 0x8123, 0x9005, 0x0100, 0xFFFF, 0x7FFF, 0x8000, 0x0001, 0x00F0,
      0x0F00, 0xAAAA, 0x5555, 0x0100, 0x4000, 0x0002, 0x0002}},
};

constexpr std::uint16_t kProbeRamCode = 0x9000;

/// The probe ROM: a prologue (LDI into every register, then CMPI r0, 6 on
/// r0 = 5 for N = C = 1, Z = 0) followed by the instruction under test or,
/// with `from_ram`, a JMP to kProbeRamCode. The rest of the image is 0x01
/// bytes, so any fetch inside it decodes as HALT.
Rom opcode_probe_rom(const OpcodeProbe& probe, std::uint8_t op, bool from_ram) {
  std::vector<std::uint8_t> image(0x400, static_cast<std::uint8_t>(Op::kHalt));
  std::size_t at = 0;
  auto emit = [&image, &at](Op o, std::uint8_t a, std::uint16_t imm) {
    encode(Instr{o, a, static_cast<std::uint8_t>(imm & 0xFF),
                 static_cast<std::uint8_t>(imm >> 8)},
           &image[at]);
    at += kInstrBytes;
  };
  for (int r = 0; r < kNumRegs; ++r) emit(Op::kLdi, static_cast<std::uint8_t>(r), probe.regs[r]);
  emit(Op::kCmpi, 0, 6);
  if (from_ram) {
    emit(Op::kJmp, 0, kProbeRamCode);
  } else {
    encode(Instr{static_cast<Op>(op), probe.a, probe.b, probe.c}, &image[at]);
  }
  Rom rom;
  rom.title = "opcode-probe";
  rom.image = std::move(image);
  return rom;
}

TEST(OpcodeDifferential, EveryOpcodeByteAgreesFromRomAndFromRam) {
  for (const OpcodeProbe& probe : kOpcodeProbes) {
    for (int op_int = 0; op_int < 256; ++op_int) {
      const auto op = static_cast<std::uint8_t>(op_int);
      for (const bool from_ram : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "opcode 0x" << std::hex << op_int << std::dec << ", operands "
                     << probe.name << ", " << (from_ram ? "from RAM" : "from ROM"));
        const Rom rom = opcode_probe_rom(probe, op, from_ram);
        ArcadeMachine fast(rom, fast_cfg(2000));
        ArcadeMachine ref(rom, ref_cfg(2000));
        if (from_ram) {
          const std::uint8_t code[kInstrBytes] = {op, probe.a, probe.b, probe.c};
          for (std::uint16_t i = 0; i < 3 * kInstrBytes; ++i) {
            const std::uint8_t byte =
                i < kInstrBytes ? code[i] : static_cast<std::uint8_t>(Op::kHalt);
            fast.poke(static_cast<std::uint16_t>(kProbeRamCode + i), byte);
            ref.poke(static_cast<std::uint16_t>(kProbeRamCode + i), byte);
          }
        }
        fast.step_frame(0x0404);
        ref.step_frame(0x0404);

        const std::uint16_t op_pc =
            from_ram ? kProbeRamCode
                     : static_cast<std::uint16_t>((kNumRegs + 1) * kInstrBytes);
        EXPECT_EQ(ref.fault() == Fault::kBadOpcode, !is_valid_opcode(op));
        if (!is_valid_opcode(op)) {
          EXPECT_EQ(ref.cpu().pc(), op_pc);
        }
        expect_same_cpu(fast, ref);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fill loops
//
// PredecodedRom marks the head of `STB/STW rP, rV, off; ADDI rP, k;
// SUBI rC, 1; JNZ head` when rP, rV and rC are distinct. At a marked head
// the fast interpreter runs every iteration but the last as one block
// store, but only when the whole loop fits in the budget and those stores
// stay in RAM; the last iteration runs through the ordinary handlers.
// Each ROM below runs one loop per frame, storing a value that follows the
// frame's input (so a page the block store fails to mark dirty shows in
// the v2 digest), and is compared with the reference after every frame.

struct FillLoop {
  const char* store = "STB";
  int ptr = 4, value = 6, counter = 5;
  std::uint16_t target = 0xA000;
  std::uint16_t count = 16;
  std::uint16_t stride = 1;
  int offset = 0;
};

std::string describe(const FillLoop& f) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s r%d, r%d, %d; ADDI r%d, %u; SUBI r%d, 1 from 0x%04X x %u",
                f.store, f.ptr, f.value, f.offset, f.ptr, f.stride, f.counter, f.target, f.count);
  return buf;
}

/// Frame cost before the loop: IN, LDI, ADD, CMPI, LDI, LDI.
constexpr int kFillPrologueCycles = 6;

Rom fill_rom(const FillLoop& f) {
  char source[640];
  // Later loads win where registers alias: the counter, then the pointer.
  // The CMPI leaves N and C set, unlike any SUBI of the loop but the last.
  std::snprintf(source, sizeof source, R"(
.entry main
main:
    IN r1, 0
    LDI r%d, 0x5A3C
    ADD r%d, r1
    CMPI r1, 0x7FFF
    LDI r%d, %u
    LDI r%d, %u
head:
    %s r%d, r%d, %d
    ADDI r%d, %u
    SUBI r%d, 1
    JNZ head
    HALT
    JMP main
)",
                f.value, f.value, f.counter, f.count, f.ptr, f.target, f.store, f.ptr, f.value,
                f.offset, f.ptr, f.stride, f.counter);
  return must_assemble(source, "fill");
}

/// Whether the predecode marked the loop head of a fill_rom ROM.
bool head_marked(const Rom& rom) {
  constexpr std::size_t kHead = 6 * kInstrBytes;
  const PredecodedRom table(rom.image);
  return table.entries[kHead].op == PredecodedRom::kFillStb ||
         table.entries[kHead].op == PredecodedRom::kFillStw;
}

void expect_fill_agrees(const FillLoop& f, int frames = 3, int cycles = 100000) {
  const Rom rom = fill_rom(f);
  expect_same_cpu_every_frame(rom, frames, describe(f), cycles);
}

TEST(FillLoopTable, MarksTheShapeOnlyWithDistinctRegisters) {
  EXPECT_TRUE(head_marked(fill_rom({})));
  EXPECT_TRUE(head_marked(fill_rom({.store = "STW", .stride = 2})));
  EXPECT_FALSE(head_marked(fill_rom({.value = 4})));    // rV == rP
  EXPECT_FALSE(head_marked(fill_rom({.counter = 4})));  // rP == rC
  EXPECT_FALSE(head_marked(fill_rom({.value = 5})));    // rV == rC
  // The bundled games' marked heads are all STB/STW bytes in the image,
  // and every game but torture has one.
  for (const auto name : games::game_names()) {
    const Rom& rom = *games::rom_by_name(name);
    const PredecodedRom table(rom.image);
    int marked = 0;
    for (std::size_t addr = 0; addr < table.entries.size(); ++addr) {
      if (table.entries[addr].op <= 0xFF) continue;
      ++marked;
      EXPECT_TRUE(rom.image[addr] == static_cast<std::uint8_t>(Op::kStb) ||
                  rom.image[addr] == static_cast<std::uint8_t>(Op::kStw))
          << name << " @" << addr;
    }
    // bench/emu_perf's torture ratio floor measures dispatch only while
    // torture runs no fill loop.
    EXPECT_EQ(marked == 0, name == "torture") << name;
  }
}

TEST(FillLoopDifferential, CountsAndStrides) {
  for (const char* store : {"STB", "STW"}) {
    for (const std::uint16_t count : {1, 2, 3, 3072}) {
      for (const std::uint16_t stride : {1, 2, 64, 0, 300}) {
        expect_fill_agrees({.store = store, .target = 0x8000, .count = count, .stride = stride});
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(FillLoopDifferential, CountZeroRunsSixtyFiveThousandFiveHundredThirtySixTimes) {
  // Stride 0 keeps all 65,536 stores on one address: fast-forwarded.
  expect_fill_agrees({.count = 0, .stride = 0}, 2, 400000);
  expect_fill_agrees({.store = "STW", .count = 0, .stride = 0}, 2, 400000);
  // Stride 1 wraps past 0xFFFF into ROM: stepped, and the store faults.
  expect_fill_agrees({.count = 0, .stride = 1}, 2, 400000);
  // The whole loop does not fit in the default budget: stepped into the
  // budget fault.
  expect_fill_agrees({.count = 0, .stride = 0});
}

TEST(FillLoopDifferential, AliasedRegistersAreStepped) {
  expect_fill_agrees({.value = 4, .count = 40});                            // rV == rP
  expect_fill_agrees({.counter = 4, .target = 0xFF00, .stride = 2});        // rP == rC
  expect_fill_agrees({.counter = 4, .target = 0xA000, .stride = 3}, 2, 400000);
  expect_fill_agrees({.value = 5, .count = 300});                           // rV == rC
  expect_fill_agrees({.store = "STW", .value = 5, .count = 300, .stride = 2});
}

TEST(FillLoopDifferential, RunsIntoRomAtAChosenIteration) {
  for (const std::uint16_t at : {1, 2, 100}) {
    // Upwards: iteration `at` (from 0) wraps to address 0.
    expect_fill_agrees({.target = static_cast<std::uint16_t>(0x10000 - at), .count = 200});
    // Downwards (ADDI 0xFFFF steps back by one): iteration `at` stores to
    // 0x7FFF.
    expect_fill_agrees({.target = static_cast<std::uint16_t>(0x7FFF + at), .count = 200,
                        .stride = 0xFFFF});
    expect_fill_agrees({.store = "STW", .target = static_cast<std::uint16_t>(0x7FFF + at),
                        .count = 200, .stride = 0xFFFE});
  }
  // The offset alone reaches ROM (0x7F00 + 0xFF) or RAM (0x7FF0 + 0x20).
  expect_fill_agrees({.target = 0x7F00, .count = 50, .offset = 0xFF});
  expect_fill_agrees({.target = 0x7FF0, .count = 50, .offset = 0x20});
}

TEST(FillLoopDifferential, StoresEndingAtOrWrappingPast0xFFFF) {
  expect_fill_agrees({.target = 0xFF00, .count = 256});                               // ends at 0xFFFF
  expect_fill_agrees({.target = 0xFF00, .count = 257});                               // wraps
  expect_fill_agrees({.store = "STW", .target = 0xFF00, .count = 128, .stride = 2});  // ends at 0xFFFF
  expect_fill_agrees({.store = "STW", .target = 0xFF01, .count = 128, .stride = 2});  // last word wraps
  expect_fill_agrees({.target = 0xFF01, .count = 2, .offset = 0xFF});                 // first store wraps
}

TEST(FillLoopDifferential, LastStoreFaultingKeepsTheSkippedIterationsFlags) {
  // All but the last store stay in RAM, so they run as one block; the
  // last one faults on ROM before its ADDI and SUBI, leaving the flags of
  // the SUBI before it (the counter went from 2 to 1: Z, N and C clear).
  // StoresEndingAtOrWrappingPast0xFFFF runs the STB case.
  expect_fill_agrees({.store = "STW", .target = 0xFF00, .count = 129, .stride = 2});
  expect_fill_agrees({.store = "STW", .target = 0xEEAF, .count = 2, .stride = 0x23A8});
  const Rom rom = fill_rom({.target = 0xFF00, .count = 257});
  ArcadeMachine fast(rom, fast_cfg());
  fast.step_frame(1);
  EXPECT_EQ(fast.fault(), Fault::kRomWrite);
  EXPECT_FALSE(fast.cpu().flag_z() || fast.cpu().flag_n() || fast.cpu().flag_c());
}

TEST(FillLoopDifferential, BudgetAroundTheLastIteration) {
  for (const std::uint16_t count : {2, 3, 3072}) {
    for (const char* store : {"STB", "STW"}) {
      const FillLoop f{.store = store, .count = count, .stride = 2};
      const int loop_end = kFillPrologueCycles + count * PredecodedRom::kFillIterationCycles;
      // The loop's last JNZ lands exactly on the budget; the budget is one
      // cycle short of that (the loop no longer fits); the HALT after the
      // loop lands exactly on it.
      for (const int budget : {loop_end, loop_end - 1, loop_end + 1}) {
        SCOPED_TRACE(::testing::Message() << "budget " << budget);
        expect_fill_agrees(f, 3, budget);
      }
      ArcadeMachine fast(fill_rom(f), fast_cfg(loop_end));
      fast.step_frame(1);
      EXPECT_EQ(fast.fault(), Fault::kBudgetExceeded);  // on the HALT after the loop
      EXPECT_EQ(fast.last_frame_cycles(), loop_end + 1);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Backend identification sanity: the build knows which dispatcher it is
// running, and the reference flag actually selects the other path (guards
// against a refactor silently routing both configs to one backend).

TEST(DispatchBackend, NameMatchesCompileTimeSelection) {
  const std::string name = dispatch_backend_name();
#if defined(RTCT_THREADED_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
  EXPECT_EQ(name, "computed-goto");
#else
  EXPECT_EQ(name, "switch");
#endif
}

}  // namespace
}  // namespace rtct::emu

// ===========================================================================
// agent86: the predecoded fast path against the reference byte-fetch
// interpreter. Per frame both backends must agree on the v2 digest, the v1
// hash, the fault, the cycle count, the tone and the debug log, and their
// save_state bytes must be identical at the end.

namespace rtct::a86 {
namespace {

constexpr int kA86Budget = 50000;

MachineConfig a86_cfg(bool reference, int cycles = kA86Budget) {
  MachineConfig cfg;
  cfg.cycles_per_frame = cycles;
  cfg.reference_interpreter = reference;
  return cfg;
}

Program must_assemble_a86(const char* source, const char* name) {
  auto result = assemble(source, name);
  EXPECT_TRUE(result.ok()) << result.error_text();
  return std::move(result.program);
}

void expect_same_frame(const Agent86Machine& fast, const Agent86Machine& ref,
                       const std::string& what, int f) {
  ASSERT_EQ(fast.state_digest(2), ref.state_digest(2)) << what << ": v2 digest, frame " << f;
  ASSERT_EQ(fast.state_hash(), ref.state_hash()) << what << ": v1 hash, frame " << f;
  ASSERT_EQ(fast.fault(), ref.fault()) << what << ": fault, frame " << f;
  ASSERT_EQ(fast.last_frame_cycles(), ref.last_frame_cycles()) << what << ": cycles, frame " << f;
  ASSERT_EQ(fast.tone(), ref.tone()) << what << ": tone, frame " << f;
  ASSERT_EQ(fast.debug_log(), ref.debug_log()) << what << ": debug log, frame " << f;
}

/// Runs `frames` seeded frames on both backends. With `restore_every` > 0,
/// every that many frames both machines load the snapshot taken
/// `kDepth` frames earlier — each one the *other* backend's bytes — and
/// re-step the frames in between, compared frame by frame as well.
void expect_a86_equivalent(const Program& program, int frames, int cycles,
                           std::uint64_t input_seed, const std::string& what,
                           int restore_every = 0) {
  constexpr int kDepth = 3;
  Agent86Machine fast(program, a86_cfg(false, cycles));
  Agent86Machine ref(program, a86_cfg(true, cycles));
  Rng rng(input_seed);
  std::vector<InputWord> in(static_cast<std::size_t>(frames));
  for (auto& w : in) w = static_cast<InputWord>(rng.next_u64());
  std::deque<std::vector<std::uint8_t>> snaps;  // snaps.back(): state before frame f
  for (int f = 0; f < frames; ++f) {
    snaps.push_back(fast.save_state());
    ASSERT_EQ(snaps.back(), ref.save_state()) << what << ": snapshot before frame " << f;
    if (snaps.size() > kDepth + 1) snaps.pop_front();
    if (restore_every > 0 && f % restore_every == 0 && f >= kDepth) {
      ASSERT_TRUE(fast.load_state(snaps.front())) << what;
      ASSERT_TRUE(ref.load_state(snaps.front())) << what;
      for (int j = f - kDepth; j < f; ++j) {
        fast.step_frame(in[static_cast<std::size_t>(j)]);
        ref.step_frame(in[static_cast<std::size_t>(j)]);
        expect_same_frame(fast, ref, what + " (re-stepped)", j);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    fast.step_frame(in[static_cast<std::size_t>(f)]);
    ref.step_frame(in[static_cast<std::size_t>(f)]);
    expect_same_frame(fast, ref, what, f);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(fast.save_state(), ref.save_state()) << what;
}

// ---------------------------------------------------------------------------
// Bundled games, straight and restore-heavy

class Agent86GameDifferential : public ::testing::TestWithParam<std::string_view> {};

TEST_P(Agent86GameDifferential, FastAndReferenceAgreeFrameByFrame) {
  const Program* program = program_by_name(GetParam());
  ASSERT_NE(program, nullptr);
  const std::string name(GetParam());
  expect_a86_equivalent(*program, 240, kA86Budget, 0xA860000 + program->checksum(), name);
  expect_a86_equivalent(*program, 240, kA86Budget, 0xA861000 + program->checksum(),
                        name + " restore-heavy", 5);
}

INSTANTIATE_TEST_SUITE_P(AllGames, Agent86GameDifferential, ::testing::ValuesIn(game_names()),
                         [](const auto& param_info) { return std::string(param_info.param); });

// ---------------------------------------------------------------------------
// Structure-aware random programs
//
// Mostly well-formed instructions over mostly valid registers, with the
// hostile cases mixed in: stores through registers that point into the
// program's own pages (self-modifying code, including the page about to
// run), wild jump and call targets, bad registers, bad opcodes, INT3,
// runaway loops, and counted fill loops over all of those. The load address is usually 0x0100, sometimes mid-page
// (instructions straddle page ends at new offsets), and sometimes near
// 0xFF00, so that fetches and the image itself wrap around 0xFFFF.

Program make_a86_fuzz_program(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xA86A86);
  const std::int64_t placement = rng.uniform(0, 9);
  std::uint16_t org = kDefaultOrg;
  if (placement >= 8) {
    org = static_cast<std::uint16_t>(0xFF00 + rng.uniform(0, 0xF0));
  } else if (placement >= 6) {
    org = static_cast<std::uint16_t>(0x0100 + rng.uniform(0, 0x2FF));
  }

  auto byte = [&rng] { return static_cast<std::uint8_t>(rng.uniform(0, 255)); };
  // A register operand: 1 in 200 names a register that does not exist.
  auto reg = [&rng] {
    return static_cast<std::uint8_t>(rng.bernoulli(0.005) ? rng.uniform(kNumRegs, 15)
                                                         : rng.uniform(0, kNumRegs - 1));
  };
  auto gp = [&rng] { return static_cast<std::uint8_t>(rng.uniform(0, SI)); };  // not DI/SP

  struct Ins {
    std::vector<std::uint8_t> bytes;
    int target = -1;  ///< instruction index whose address patches bytes[1..2]
  };
  std::vector<Ins> prog;
  const int body = static_cast<int>(rng.uniform(24, 160));
  auto any_target = [&rng, body] { return static_cast<int>(rng.uniform(0, body + 5)); };
  auto rr = [](std::uint8_t hi, std::uint8_t lo) { return static_cast<std::uint8_t>((hi << 4) | lo); };

  // Prelude: DI points into the program (stores there modify code), SI at
  // a data page, BX at video; the stack stays put or moves next to code.
  const auto code_ptr = static_cast<std::uint16_t>(org + rng.uniform(0, 3 * body));
  prog.push_back({{kMovRI, DI, static_cast<std::uint8_t>(code_ptr), static_cast<std::uint8_t>(code_ptr >> 8)}});
  prog.push_back({{kMovRI, SI, 0x00, static_cast<std::uint8_t>(rng.uniform(0x40, 0x60))}});
  prog.push_back({{kMovRI, BX, 0x00, 0xB8}});
  if (rng.bernoulli(0.2)) {
    const auto sp = static_cast<std::uint16_t>(org + rng.uniform(0, 3 * body));
    prog.push_back({{kMovRI, SP, static_cast<std::uint8_t>(sp), static_cast<std::uint8_t>(sp >> 8)}});
  }
  const int prelude = static_cast<int>(prog.size());

  for (int i = 0; i < body; ++i) {
    const std::int64_t roll = rng.uniform(0, 99);
    if (roll < 4) {
      // A counted fill loop (store, ADD or INC, LOOP back), which the fast
      // path may run as one block store: registers sometimes aliased, the
      // pointer at video, a data page, the program itself or near 0xFFFF.
      const std::uint8_t ptr = rng.bernoulli(0.9) ? reg() : static_cast<std::uint8_t>(CX);
      const std::uint8_t value = rng.bernoulli(0.1) ? ptr : reg();
      const std::int64_t where = rng.uniform(0, 3);
      const auto target = static_cast<std::uint16_t>(
          where == 0 ? 0xB800 + rng.uniform(0, 0x7FF)
                     : where == 1 ? rng.uniform(0x4000, 0x6000)
                                  : where == 2 ? org + rng.uniform(0, 3 * body) : 0xFF00 + byte());
      const auto count = static_cast<std::uint16_t>(rng.bernoulli(0.3) ? rng.uniform(0, 3)
                                                                        : rng.uniform(4, 420));
      const std::uint16_t stride = rng.bernoulli(0.2) ? byte() : static_cast<std::uint16_t>(rng.uniform(0, 2));
      prog.push_back({{kMovRI, value, byte(), byte()}});
      prog.push_back({{kMovRI, CX, static_cast<std::uint8_t>(count), static_cast<std::uint8_t>(count >> 8)}});
      prog.push_back({{kMovRI, ptr, static_cast<std::uint8_t>(target), static_cast<std::uint8_t>(target >> 8)}});
      const int head = static_cast<int>(prog.size());
      prog.push_back({{static_cast<std::uint8_t>(rng.bernoulli(0.5) ? kStB : kStW), rr(ptr, value),
                       static_cast<std::uint8_t>(rng.bernoulli(0.7) ? 0 : byte())}});
      if (rng.bernoulli(0.3)) {
        prog.push_back({{kInc, ptr}});
      } else {
        prog.push_back({{kAddRI, ptr, static_cast<std::uint8_t>(stride), static_cast<std::uint8_t>(stride >> 8)}});
      }
      prog.push_back({{kLoop, 0, 0}, head - prelude});
    } else if (roll < 18) {
      const auto op = static_cast<std::uint8_t>(rng.bernoulli(0.15) ? std::int64_t{kCmpRR} : kAddRR + rng.uniform(0, 7));
      prog.push_back({{op, rr(reg(), reg())}});
    } else if (roll < 30) {
      const auto op = static_cast<std::uint8_t>(rng.bernoulli(0.15) ? std::int64_t{kCmpRI} : kAddRI + rng.uniform(0, 7));
      prog.push_back({{op, reg(), byte(), byte()}});
    } else if (roll < 37) {
      prog.push_back({{kMovRI, gp(), byte(), byte()}});
    } else if (roll < 40) {
      prog.push_back({{kMovRR, rr(reg(), reg())}});
    } else if (roll < 44) {
      prog.push_back({{static_cast<std::uint8_t>(kNeg + rng.uniform(0, 3)), reg()}});
    } else if (roll < 51) {
      // Loads: [r+d8] off any register.
      prog.push_back({{static_cast<std::uint8_t>(rng.bernoulli(0.5) ? kLdB : kLdW), rr(reg(), reg()), byte()}});
    } else if (roll < 67) {
      // Stores, most through DI (into the program), the rest through SI/BX.
      const std::uint8_t base = rng.bernoulli(0.7) ? DI : (rng.bernoulli(0.5) ? SI : BX);
      prog.push_back({{static_cast<std::uint8_t>(rng.bernoulli(0.5) ? kStB : kStW),
                       rr(rng.bernoulli(0.95) ? base : reg(), reg()), byte()}});
    } else if (roll < 71) {
      // Move the code pointer on, so stores sweep across the program.
      prog.push_back({{kAddRI, DI, byte(), 0x00}});
    } else if (roll < 78) {
      const auto op = static_cast<std::uint8_t>(kJmp + rng.uniform(0, 7));  // Jcc or LOOP
      if (rng.bernoulli(0.1)) {
        prog.push_back({{op, byte(), byte()}});  // wild target
      } else {
        prog.push_back({{op, 0, 0}, any_target()});
      }
    } else if (roll < 81) {
      prog.push_back({{kCall, 0, 0}, any_target()});
    } else if (roll < 83) {
      prog.push_back({{kRet}});
    } else if (roll < 87) {
      prog.push_back({{static_cast<std::uint8_t>(rng.bernoulli(0.5) ? kPush : kPop), reg()}});
    } else if (roll < 89) {
      prog.push_back({{kOut, static_cast<std::uint8_t>(rng.uniform(0, 2)), reg()}});
    } else if (roll < 97) {
      prog.push_back({{kHlt}});
    } else if (roll < 98) {
      prog.push_back({{rng.bernoulli(0.5) ? kInt3 : kNop}});
    } else {
      prog.push_back({{byte()}});  // may be a bad opcode
    }
  }
  // Tail: end the frame and loop past the prelude.
  prog.push_back({{kHlt}});
  prog.push_back({{kJmp, 0, 0}, prelude});

  std::vector<std::uint16_t> addr;
  std::uint32_t at = org;
  for (const auto& ins : prog) {
    addr.push_back(static_cast<std::uint16_t>(at));
    at += static_cast<std::uint32_t>(ins.bytes.size());
  }
  Program p;
  p.name = "a86fuzz-" + std::to_string(seed);
  p.org = org;
  p.entry = org;
  for (auto& ins : prog) {
    if (ins.target >= 0) {
      const std::uint16_t t = addr[static_cast<std::size_t>(
          std::min<int>(ins.target + prelude, static_cast<int>(prog.size()) - 1))];
      ins.bytes[1] = static_cast<std::uint8_t>(t);
      ins.bytes[2] = static_cast<std::uint8_t>(t >> 8);
    }
    p.image.insert(p.image.end(), ins.bytes.begin(), ins.bytes.end());
  }
  return p;
}

constexpr std::uint64_t kA86FuzzSeeds = 300;

TEST(Agent86FuzzDifferential, StructureAwareRandomProgramsAgree) {
  // A small budget keeps runaway seeds cheap; restores every 4 frames
  // revisit self-modified code pages from both directions.
  for (std::uint64_t seed = 1; seed <= kA86FuzzSeeds; ++seed) {
    const Program p = make_a86_fuzz_program(seed);
    expect_a86_equivalent(p, 24, 3000, seed ^ 0xF00D, p.name, 4);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// How many fill-loop heads `p`'s predecode marked in its image.
int a86_fill_heads(const Program& p) {
  const auto table = PredecodedProgram::shared(p);
  int heads = 0;
  for (std::size_t i = 0; i < p.image.size() && p.org + i < kMemSize; ++i) {
    const std::uint8_t op = table->entries()[p.org + i].op;
    if (op == kXFillB || op == kXFillW) ++heads;
  }
  return heads;
}

TEST(Agent86FuzzDifferential, GeneratorReachesTheCasesItIsFor) {
  // Guards the generator against drifting into tame programs: over the
  // seeds above, some programs must wrap, fault on a bad register, store
  // into their own pages, and hold a marked fill-loop head.
  int wrapped = 0, bad_reg = 0, self_modified = 0, fill_loops = 0;
  for (std::uint64_t seed = 1; seed <= kA86FuzzSeeds; ++seed) {
    const Program p = make_a86_fuzz_program(seed);
    if (p.org + p.image.size() > kMemSize) ++wrapped;
    if (a86_fill_heads(p) > 0) ++fill_loops;
    Agent86Machine m(p, a86_cfg(false, 3000));
    for (int f = 0; f < 24 && !m.faulted(); ++f) m.step_frame(static_cast<InputWord>(f));
    if (m.fault() == Fault::kBadReg) ++bad_reg;
    for (std::size_t i = 0; i < p.image.size() && p.org + i < kMemSize; ++i) {
      if (m.peek(static_cast<std::uint16_t>(p.org + i)) != p.image[i]) {
        ++self_modified;
        break;
      }
    }
  }
  EXPECT_GT(wrapped, 10);
  EXPECT_GT(bad_reg, 10);
  EXPECT_GT(self_modified, 50);
  EXPECT_GT(fill_loops, 100);
}

// ---------------------------------------------------------------------------
// Hand-written regressions

TEST(Agent86RegressionDifferential, StoreIntoTheNextInstruction) {
  // The store patches the immediate of the instruction right after it, in
  // the page being executed: the next fetch must see the new bytes.
  const Program p = must_assemble_a86(R"(
main:
        MOV SI, patched
        MOV AX, 0x1234
        MOV [SI+2], AX
patched:
        MOV BX, 0x5678
        HLT
        JMP main
  )", "store-next");
  for (const bool reference : {false, true}) {
    Agent86Machine m(p, a86_cfg(reference));
    m.step_frame(0);
    EXPECT_EQ(m.fault(), Fault::kNone) << "reference=" << reference;
    EXPECT_EQ(m.reg(BX), 0x1234) << "reference=" << reference;
  }
  expect_a86_equivalent(p, 8, kA86Budget, 0x11, "store-next", 3);
}

TEST(Agent86RegressionDifferential, StoreIntoTheTailPageOfAStraddlingInstruction) {
  // MOV BX, imm at 0x01FE straddles into page 2, where its immediate
  // lives. The store dirties only page 2; page 1 keeps its bit, so the
  // straddler must be decoded live, never from page 1's table.
  const Program p = must_assemble_a86(R"(
main:
        MOV SI, 0x0200
        MOVB AX, [SI+0x10]
        ADD AX, 0x4300
        MOV [SI], AX
        JMP straddler
        ORG 0x01FE
straddler:
        MOV BX, 0x1111
        HLT
        JMP main
  )", "straddle-tail");
  ASSERT_EQ(p.image[0x01FE - p.org], kMovRI);
  for (const bool reference : {false, true}) {
    Agent86Machine m(p, a86_cfg(reference));
    m.step_frame(0);
    EXPECT_EQ(m.fault(), Fault::kNone) << "reference=" << reference;
    EXPECT_EQ(m.reg(BX), 0x4300 + m.peek(0x0210)) << "reference=" << reference;
  }
  expect_a86_equivalent(p, 8, kA86Budget, 0x22, "straddle-tail", 3);
}

// Each frame runs `MOV BX, imm` and then patches that immediate with the
// frame's player-0 byte, so BX in frame f is the input of frame f - 1.
constexpr const char* kPatchEachFrame = R"(
main:
        MOV BX, 0x1111
        MOV SI, main
        MOV DI, 0xF800
        MOVB AX, [DI]
        MOV [SI+2], AX
        HLT
        JMP main
)";

TEST(Agent86RegressionDifferential, RestoringASnapshotWhoseCodePageWasModified) {
  const Program p = must_assemble_a86(kPatchEachFrame, "patch-restore");
  Agent86Machine writer(p, a86_cfg(false));
  const auto pristine = writer.save_state();  // code page matches the image
  writer.step_frame(0x0042);
  writer.step_frame(0x0017);
  const auto patched = writer.save_state();   // code page holds imm 0x0017

  for (const bool reference : {false, true}) {
    const std::string what = reference ? "reference" : "fast";
    // A fresh machine's code page matches the image; the restore rewrites
    // it, so the next frame must run the patched immediate.
    Agent86Machine m(p, a86_cfg(reference));
    ASSERT_TRUE(m.load_state(patched));
    m.step_frame(0x0099);
    EXPECT_EQ(m.reg(BX), 0x0017) << what;
    // And back: restoring the pristine snapshot puts the image bytes back.
    ASSERT_TRUE(m.load_state(pristine));
    m.step_frame(0x0005);
    EXPECT_EQ(m.reg(BX), 0x1111) << what;
    // A page written with the same bytes it holds in the snapshot.
    ASSERT_TRUE(m.load_state(patched));
    m.step_frame(0x0017);
    ASSERT_TRUE(m.load_state(patched));
    m.step_frame(0x0001);
    EXPECT_EQ(m.reg(BX), 0x0017) << what;
  }
  expect_a86_equivalent(p, 40, kA86Budget, 0x33, "patch-restore", 3);
}

TEST(Agent86RegressionDifferential, PushSpPushesTheOldSp) {
  const Program p = must_assemble_a86(R"(
main:
        MOV SP, 0x8000
        PUSH SP
        POP AX
        MOV SP, 0x9000
        PUSH SP
        POP SP
        HLT
        JMP main
  )", "push-sp");
  for (const bool reference : {false, true}) {
    Agent86Machine m(p, a86_cfg(reference));
    m.step_frame(0);
    EXPECT_EQ(m.fault(), Fault::kNone) << "reference=" << reference;
    EXPECT_EQ(m.reg(AX), 0x8000) << "reference=" << reference;
    EXPECT_EQ(m.peek16(0x7FFE), 0x8000) << "reference=" << reference;
    EXPECT_EQ(m.reg(SP), 0x9000) << "reference=" << reference;  // POP SP keeps the value
  }
  expect_a86_equivalent(p, 4, kA86Budget, 0x44, "push-sp");
}

TEST(Agent86RegressionDifferential, BadRegisterFaultsAfterTheWholeInstructionIsFetched) {
  // Every operand form with a register byte: MOV r, imm (4 B), MOV r, r
  // (2 B), a load (3 B), OUT (3 B, register in its last byte), and a
  // 4-byte form straddling a page end. ip must end past the instruction.
  struct Case {
    std::vector<std::uint8_t> bytes;
    std::uint16_t at;
  };
  const Case cases[] = {
      {{kMovRI, 9, 0x34, 0x12}, 0x0100},
      {{kMovRR, 0x0F}, 0x0100},
      {{kLdW, 0x70, 0x04}, 0x0100},
      {{kOut, kPortTone, 7}, 0x0100},
      {{kAddRI, 8, 0x01, 0x00}, 0x01FE},
  };
  for (const Case& c : cases) {
    Program p;
    p.name = "bad-reg";
    p.org = c.at;
    p.entry = c.at;
    p.image = c.bytes;
    Agent86Machine fast(p, a86_cfg(false));
    Agent86Machine ref(p, a86_cfg(true));
    fast.step_frame(0);
    ref.step_frame(0);
    for (const Agent86Machine* m : {&fast, &ref}) {
      EXPECT_EQ(m->fault(), Fault::kBadReg) << "op " << int(c.bytes[0]);
      EXPECT_EQ(m->ip(), c.at + c.bytes.size()) << "op " << int(c.bytes[0]);
      EXPECT_EQ(m->last_frame_cycles(), 0) << "op " << int(c.bytes[0]);
    }
    EXPECT_EQ(fast.save_state(), ref.save_state()) << "op " << int(c.bytes[0]);
  }
}

// Frame cost: MOV (2) + MOV (2) + HLT (1) = 5 cycles.
constexpr const char* kFiveCycleFrame = R"(
main:
        MOV AX, 1
        MOV BX, 2
        HLT
        JMP main
)";

TEST(Agent86RegressionDifferential, BudgetLandingExactly) {
  const Program p = must_assemble_a86(kFiveCycleFrame, "budget");
  // budget -> (fault, cycles): the budget is checked before each fetch,
  // so an instruction that starts under budget runs to completion.
  const struct {
    int budget;
    Fault fault;
    int cycles;
  } cases[] = {{5, Fault::kNone, 5}, {4, Fault::kBudgetExceeded, 4},
               {3, Fault::kBudgetExceeded, 4}, {1, Fault::kBudgetExceeded, 2},
               {0, Fault::kBudgetExceeded, 0}};
  for (const auto& c : cases) {
    for (const bool reference : {false, true}) {
      Agent86Machine m(p, a86_cfg(reference, c.budget));
      m.step_frame(0);
      EXPECT_EQ(m.fault(), c.fault) << "budget " << c.budget << " reference=" << reference;
      EXPECT_EQ(m.last_frame_cycles(), c.cycles)
          << "budget " << c.budget << " reference=" << reference;
    }
    expect_a86_equivalent(p, 3, c.budget, 0x55, "budget " + std::to_string(c.budget));
  }
}

TEST(Agent86RegressionDifferential, SnapshotWithZfAndSfBothSetLoadsAndRoundTrips) {
  // No instruction sets ZF and SF together, but load_state accepts any
  // flag bits a snapshot may carry; both backends must keep both.
  const Program p = must_assemble_a86(R"(
main:
        JZ z_set
        HLT
z_set:
        JS s_set
        HLT
s_set:
        MOV AX, 0x77
        HLT
        JMP main
  )", "zf-sf");
  Agent86Machine src(p, a86_cfg(false));
  auto snap = src.save_state();
  constexpr std::size_t kFlagsOffset = 1 + 8 + 2 * kNumRegs + 2;  // version, id, regs, ip
  ASSERT_EQ(snap[kFlagsOffset], 0);
  snap[kFlagsOffset] = 3;  // ZF | SF
  for (const bool reference : {false, true}) {
    Agent86Machine m(p, a86_cfg(reference));
    ASSERT_TRUE(m.load_state(snap)) << "reference=" << reference;
    EXPECT_EQ(m.save_state(), snap) << "reference=" << reference;
    m.step_frame(0);
    EXPECT_EQ(m.reg(AX), 0x77) << "reference=" << reference;
  }
  Agent86Machine fast(p, a86_cfg(false));
  Agent86Machine ref(p, a86_cfg(true));
  ASSERT_TRUE(fast.load_state(snap));
  ASSERT_TRUE(ref.load_state(snap));
  for (int f = 0; f < 4; ++f) {
    fast.step_frame(0);
    ref.step_frame(0);
    expect_same_frame(fast, ref, "zf-sf", f);
  }
  EXPECT_EQ(fast.save_state(), ref.save_state());
}

// ---------------------------------------------------------------------------
// Fill loops
//
// The predecode marks the head of `MOV/MOVB [rP+d], rV; ADD rP, k | INC rP;
// LOOP head` when the loop lies in one page and rP, rV and CX are
// distinct. At a marked head the fast interpreter runs every iteration but
// the last as one block store, but only when the whole loop fits in the
// budget and those stores neither wrap past 0xFFFF nor touch the loop's
// own page. Each program stores a value that follows the frame's input
// and is compared with the reference after every frame.

struct A86Fill {
  bool word = false;
  Reg ptr = DI, value = AX, counter = CX;  ///< `counter` only loads; LOOP counts CX
  std::uint16_t target = 0xB800;
  std::uint16_t count = 16;
  int stride = 1;  ///< ADD rP, stride; -1 for INC rP
  int disp = 0;
  std::uint16_t org = kDefaultOrg;
};

const char* reg_name(Reg r) {
  static const char* const kNames[] = {"AX", "BX", "CX", "DX", "SI", "DI", "SP"};
  return kNames[r];
}

/// The loop's store and step instructions, joined by `sep`.
std::string loop_body(const A86Fill& f, const char* sep) {
  char body[80];
  const int n = std::snprintf(body, sizeof body, "%s [%s+%d], %s%s", f.word ? "MOV" : "MOVB",
                              reg_name(f.ptr), f.disp, reg_name(f.value), sep);
  if (f.stride < 0) {
    std::snprintf(body + n, sizeof body - n, "INC %s", reg_name(f.ptr));
  } else {
    std::snprintf(body + n, sizeof body - n, "ADD %s, %d", reg_name(f.ptr), f.stride);
  }
  return body;
}

std::string describe(const A86Fill& f) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s; LOOP from 0x%04X x %u", loop_body(f, "; ").c_str(), f.target,
                f.count);
  return buf;
}

/// Frame cost before the loop: MOV, MOVB load, ADD, MOV, MOV.
constexpr int kA86FillPrologueCycles = 2 + 3 + 2 + 2 + 2;

/// The source of an A86Fill frame; `tail` goes after the frame's HLT/JMP.
std::string a86_fill_source(const A86Fill& f, const std::string& tail = "") {
  // The input pointer lives in a register the loop does not use.
  Reg scratch = SI;
  for (const Reg r : {SI, DX, BX}) {
    if (r != f.ptr && r != f.value && r != f.counter) {
      scratch = r;
      break;
    }
  }
  char source[640];
  // Later loads win where registers alias: the counter, then the pointer.
  std::snprintf(source, sizeof source, R"(
        ORG %u
main:
        MOV %s, 0xF800
        MOVB %s, [%s]
        ADD %s, 0x5A3C
        MOV %s, %u
        MOV %s, %u
head:
        %s
        LOOP head
        HLT
        JMP main
)",
                f.org, reg_name(scratch), reg_name(f.value), reg_name(scratch), reg_name(f.value),
                reg_name(f.counter), f.count, reg_name(f.ptr), f.target, loop_body(f, "\n        ").c_str());
  return source + tail;
}

/// Steps both backends and compares fault, ip, cycles, registers, the v1
/// hash and v2 digest, tone, debug log and save_state bytes every frame.
void expect_same_a86_every_frame(const Program& p, int frames, int cycles, const std::string& what) {
  Agent86Machine fast(p, a86_cfg(false, cycles));
  Agent86Machine ref(p, a86_cfg(true, cycles));
  for (int f = 0; f < frames; ++f) {
    const auto input = static_cast<InputWord>(0x0301 * (f + 1));
    fast.step_frame(input);
    ref.step_frame(input);
    expect_same_frame(fast, ref, what, f);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(fast.ip(), ref.ip()) << what << ", frame " << f;
    for (int r = 0; r < kNumRegs; ++r) {
      EXPECT_EQ(fast.reg(static_cast<Reg>(r)), ref.reg(static_cast<Reg>(r)))
          << what << ", frame " << f << ", register " << reg_name(static_cast<Reg>(r));
    }
    EXPECT_EQ(fast.save_state(), ref.save_state()) << what << ", frame " << f;
    if (::testing::Test::HasFailure()) return;
  }
}

void expect_a86_fill_agrees(const A86Fill& f, int frames = 3, int cycles = kA86Budget) {
  const std::string what = describe(f);
  const auto result = assemble(a86_fill_source(f), "a86-fill");
  ASSERT_TRUE(result.ok()) << what << ": " << result.error_text();
  expect_same_a86_every_frame(result.program, frames, cycles, what);
}

TEST(Agent86FillLoopTable, MarksTheShapeOnlyWithDistinctRegistersInOnePage) {
  auto heads = [](const A86Fill& f) { return a86_fill_heads(must_assemble_a86(a86_fill_source(f).c_str(), "t")); };
  EXPECT_EQ(heads({}), 1);
  EXPECT_EQ(heads({.word = true, .stride = 2}), 1);
  EXPECT_EQ(heads({.stride = -1}), 1);
  EXPECT_EQ(heads({.value = DI}), 0);    // rV == rP
  EXPECT_EQ(heads({.ptr = CX}), 0);      // rP == CX
  EXPECT_EQ(heads({.value = CX}), 0);    // rV == CX
  // The prologue is 19 bytes and the loop 10, so an ORG of 0x01ED puts
  // the head at 0x0200 and one of 0x01E7 puts the loop across the page
  // end (0x01FA–0x0203).
  EXPECT_EQ(heads({.org = 0x01ED}), 1);
  EXPECT_EQ(heads({.org = 0x01E7}), 0);
  // The bundled games' clear loops are marked.
  for (const auto name : {"skirmish", "pong"}) {
    EXPECT_GT(a86_fill_heads(*program_by_name(name)), 0) << name;
  }
}

TEST(Agent86FillLoopDifferential, CountsAndStrides) {
  for (const bool word : {false, true}) {
    for (const std::uint16_t count : {1, 2, 3, 3072}) {
      for (const int stride : {-1, 1, 2, 64, 0, 300}) {
        expect_a86_fill_agrees({.word = word, .count = count, .stride = stride});
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(Agent86FillLoopDifferential, CountZeroRunsSixtyFiveThousandFiveHundredThirtySixTimes) {
  // Stride 0 keeps all 65,536 stores on one address: fast-forwarded.
  expect_a86_fill_agrees({.count = 0, .stride = 0}, 2, 500000);
  expect_a86_fill_agrees({.word = true, .count = 0, .stride = 0}, 2, 500000);
  // INC wraps past 0xFFFF and over the program: stepped.
  expect_a86_fill_agrees({.count = 0, .stride = -1}, 2, 500000);
  // Does not fit in the default budget: stepped into the budget fault.
  expect_a86_fill_agrees({.count = 0, .stride = 0});
}

TEST(Agent86FillLoopDifferential, AliasedRegistersAreStepped) {
  expect_a86_fill_agrees({.value = DI, .count = 40});                          // rV == rP
  expect_a86_fill_agrees({.ptr = CX, .target = 0xB800, .stride = 2}, 2, 500000);  // rP == CX
  expect_a86_fill_agrees({.value = CX, .count = 300});                         // rV == CX
  expect_a86_fill_agrees({.word = true, .value = CX, .count = 300, .stride = 2});
}

TEST(Agent86FillLoopDifferential, StoresEndingAtOrWrappingPast0xFFFF) {
  expect_a86_fill_agrees({.target = 0xFF00, .count = 256});                              // ends at 0xFFFF
  expect_a86_fill_agrees({.target = 0xFF00, .count = 300});                              // wraps to 0x0000
  expect_a86_fill_agrees({.word = true, .target = 0xFF00, .count = 128, .stride = 2});  // ends at 0xFFFF
  expect_a86_fill_agrees({.word = true, .target = 0xFF01, .count = 128, .stride = 2});  // last word wraps
  expect_a86_fill_agrees({.target = 0xFFF0, .count = 2, .disp = 0x20});                // first store wraps
  // Wrapping far enough to run over the program's own code.
  expect_a86_fill_agrees({.target = 0xFFF0, .count = 0x140, .stride = -1}, 3, 500000);
}

TEST(Agent86FillLoopDifferential, StoresOverTheLoopsOwnPage) {
  // The program occupies 0x0100–0x0120 and the loop 0x0113–0x011C.
  // Stores into the rest of the page, and stores over the loop itself
  // (zeros are NOPs, so the loop unravels into a NOP slide).
  expect_a86_fill_agrees({.target = 0x0180, .count = 0x40});
  expect_a86_fill_agrees({.target = 0x00F0, .count = 0x20});
  expect_a86_fill_agrees({.value = BX, .target = 0x0108, .count = 0x30}, 3, 500000);
  expect_a86_fill_agrees({.word = true, .target = 0x0100, .count = 0x20, .stride = 2}, 3, 500000);
}

TEST(Agent86FillLoopDifferential, StoresOverAnotherRoutinesValidCodePage) {
  // `patch` sits in page 3, untouched since load, so its entries are in
  // use. The first store overwrites its immediate and the last one lands
  // in a later page, so only the block store writes page 3, and the CALL
  // after the loop must see the new bytes.
  for (const int stride : {64, 300}) {
    const A86Fill f{.word = true, .target = 0x03F2, .count = 2, .stride = stride};
    std::string source = a86_fill_source(f, R"(
        ORG 0x03F0
patch:
        MOV BX, 0x1111
        RET
)");
    source.replace(source.find("        HLT\n"), 0, "        CALL patch\n");
    const Program p = must_assemble_a86(source.c_str(), "a86-fill-patch");
    for (const bool reference : {false, true}) {
      Agent86Machine m(p, a86_cfg(reference));
      m.step_frame(0x0005);
      EXPECT_EQ(m.reg(BX), m.reg(AX)) << "stride " << stride << ", reference=" << reference;
    }
    expect_same_a86_every_frame(p, 4, kA86Budget, describe(f) + " over patch");
  }
}

TEST(Agent86FillLoopDifferential, BudgetAroundTheLastIteration) {
  for (const std::uint16_t count : {2, 3, 3072}) {
    for (const int stride : {-1, 2}) {
      const A86Fill f{.word = true, .count = count, .stride = stride};
      const int iteration = stride < 0 ? 3 + 1 + 2 : 3 + 2 + 2;
      const int loop_end = kA86FillPrologueCycles + count * iteration;
      // The whole loop fits exactly; one cycle short of that; room for
      // the HLT after it.
      for (const int budget : {loop_end, loop_end - 1, loop_end + 1}) {
        SCOPED_TRACE(::testing::Message() << "budget " << budget);
        expect_a86_fill_agrees(f, 3, budget);
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace rtct::a86
