// agent86 core: assembler encodings/diagnostics, CPU semantics (flags,
// stack, control flow, memory-mapped IO), machine behaviour (input latch,
// faults, renderable surface), and the bundled games' basic health.
#include <gtest/gtest.h>

#include "src/cores/agent86/assembler.h"
#include "src/cores/agent86/games.h"
#include "src/cores/agent86/isa.h"
#include "src/cores/agent86/machine.h"

namespace rtct::a86 {
namespace {

constexpr int kV3 = emu::kStateDigestVersion;

Program must_assemble(const char* src) {
  auto r = assemble(src, "test");
  EXPECT_TRUE(r.ok()) << r.error_text();
  return std::move(r.program);
}

/// Assembles and runs one frame with the given input word.
Agent86Machine run1(const char* src, InputWord input = 0) {
  Agent86Machine m(must_assemble(src));
  m.step_frame(input);
  return m;
}

// ---- assembler -------------------------------------------------------------

TEST(Agent86Assembler, EncodesBasicForms) {
  const Program p = must_assemble(R"(
    ORG 0x0200
    MOV AX, 0x1234
    MOV BX, AX
    MOV CX, [SI+4]
    MOVB [DI], DX
    ADD AX, 7
    CMP AX, BX
    HLT
  )");
  EXPECT_EQ(p.org, 0x0200);
  EXPECT_EQ(p.entry, 0x0200);
  const std::vector<std::uint8_t> want = {
      kMovRI, AX, 0x34, 0x12,
      kMovRR, (BX << 4) | AX,
      kLdW,   (CX << 4) | SI, 4,
      kStB,   (DI << 4) | DX, 0,
      kAddRI, AX, 7, 0,
      kCmpRR, (AX << 4) | BX,
      kHlt,
  };
  EXPECT_EQ(p.image, want);
}

TEST(Agent86Assembler, LabelsEquExpressionsAndData) {
  const Program p = must_assemble(R"(
    BASE EQU 0x0100        ; trailing-h and 0x forms below must agree
    ORG BASE
    start:
      JMP start
      DB 1, 'A', "hi", 255
      DW start, 0BEEFh, -1
      RESB 3
    ENTRY start
  )");
  EXPECT_EQ(p.entry, 0x0100);
  const std::vector<std::uint8_t> want = {
      kJmp, 0x00, 0x01,
      1, 'A', 'h', 'i', 255,
      0x00, 0x01, 0xEF, 0xBE, 0xFF, 0xFF,
      0, 0, 0,
  };
  EXPECT_EQ(p.image, want);
}

TEST(Agent86Assembler, JumpAliasesEncodeIdentically) {
  const Program a = must_assemble("t: JE t\nJNE t\nJB t\nJAE t");
  const Program b = must_assemble("t: JZ t\nJNZ t\nJC t\nJNC t");
  EXPECT_EQ(a.image, b.image);
}

TEST(Agent86Assembler, ReportsErrorsWithLines) {
  const auto r = assemble("MOV AX, 1\nBOGUS AX\nMOV AX, undef_sym\n", "bad");
  ASSERT_EQ(r.errors.size(), 2u);
  EXPECT_EQ(r.errors[0].line, 2);
  EXPECT_NE(r.errors[0].message.find("BOGUS"), std::string::npos);
  EXPECT_EQ(r.errors[1].line, 3);
}

TEST(Agent86Assembler, RejectsBadShapes) {
  EXPECT_FALSE(assemble("MOV [SI], [DI]").ok());
  EXPECT_FALSE(assemble("MOVB AX, BX").ok());
  EXPECT_FALSE(assemble("PUSH 5").ok());
  EXPECT_FALSE(assemble("HLT AX").ok());
  EXPECT_FALSE(assemble("MOV AX, [SI+300]").ok());  // disp > 255
  EXPECT_FALSE(assemble("AX EQU 3").ok());          // reserved
  EXPECT_FALSE(assemble("x EQU 1\nx EQU 2").ok());  // duplicate
  EXPECT_FALSE(assemble("ORG 0x200\nORG 0x100\nHLT").ok());  // backwards
}

// ---- CPU semantics ---------------------------------------------------------

TEST(Agent86Cpu, ArithmeticFlagsDriveConditionalJumps) {
  // Each check writes a marker byte; a wrong flag leaves the marker 0.
  const auto m = run1(R"(
    OUT_BASE EQU 0x0600
    MOV SI, OUT_BASE
    MOV AX, 0xFFFF
    ADD AX, 1            ; -> 0, ZF and CF set
    JNZ fail1
    JNC fail1
    MOV BX, 1
    MOVB [SI+0], BX
  fail1:
    MOV AX, 2
    SUB AX, 3            ; borrow: CF set, result 0xFFFF (SF set)
    JNC fail2
    JNS fail2
    MOV BX, 1
    MOVB [SI+1], BX
  fail2:
    MOV AX, 1
    ADD AX, 1            ; clears CF
    INC AX               ; INC must preserve CF=0
    JC fail3
    MOV AX, 0xFFFF
    ADD AX, 1            ; sets CF
    DEC AX               ; DEC must preserve CF=1
    JNC fail3
    MOV BX, 1
    MOVB [SI+2], BX
  fail3:
    MOV AX, 3
    MUL AX, 0x5555       ; 0xFFFF: high word zero -> CF clear
    JC fail4
    MUL AX, 2            ; 0x1FFFE -> CF set
    JNC fail4
    MOV BX, 1
    MOVB [SI+3], BX
  fail4:
    MOV AX, 0x8000
    SHL AX, 1            ; CF = old bit 15
    JNC fail5
    MOV AX, 1
    SHR AX, 1            ; CF = old bit 0, result 0 (ZF)
    JNC fail5
    JNZ fail5
    MOV BX, 1
    MOVB [SI+4], BX
  fail5:
    HLT
  )");
  for (std::uint16_t i = 0; i < 5; ++i) {
    EXPECT_EQ(m.peek(0x0600 + i), 1) << "flag check " << i << " failed";
  }
  EXPECT_EQ(m.fault(), Fault::kNone);
}

TEST(Agent86Cpu, StackCallRetAndLoop) {
  const auto m = run1(R"(
    MOV AX, 0x1111
    PUSH AX
    MOV AX, 0x2222
    PUSH AX
    POP BX               ; 0x2222
    POP CX               ; 0x1111
    MOV DX, 0
    MOV CX, 5
  again:
    ADD DX, 2
    LOOP again           ; 5 iterations -> DX = 10
    CALL sub
    HLT
  sub:
    MOV AX, 0x7777
    RET
  )");
  EXPECT_EQ(m.reg(DX), 10);
  EXPECT_EQ(m.reg(AX), 0x7777);
  EXPECT_EQ(m.reg(SP), kInitialSp);  // balanced pushes/pops
  EXPECT_EQ(m.fault(), Fault::kNone);
}

TEST(Agent86Cpu, WordAndByteMemoryAccess) {
  const auto m = run1(R"(
    MOV SI, 0x0700
    MOV AX, 0xABCD
    MOV [SI], AX         ; little-endian word store
    MOVB BX, [SI]        ; zero-extended byte load -> 0xCD
    MOVB CX, [SI+1]      ; -> 0xAB
    MOV DX, [SI]         ; word load
    HLT
  )");
  EXPECT_EQ(m.peek(0x0700), 0xCD);
  EXPECT_EQ(m.peek(0x0701), 0xAB);
  EXPECT_EQ(m.reg(BX), 0xCD);
  EXPECT_EQ(m.reg(CX), 0xAB);
  EXPECT_EQ(m.reg(DX), 0xABCD);
}

TEST(Agent86Cpu, OutPortsToneAndDebug) {
  const auto m = run1(R"(
    MOV AX, 440
    OUT 1, AX            ; tone
    MOV BX, 0xBEEF
    OUT 0, BX            ; debug log
    HLT
  )");
  EXPECT_EQ(m.tone(), 440);
  ASSERT_EQ(m.debug_log().size(), 1u);
  EXPECT_EQ(m.debug_log()[0], 0xBEEF);
}

TEST(Agent86Cpu, HltResumesAtNextInstructionNextFrame) {
  Agent86Machine m(must_assemble(R"(
    MOV AX, 1
    HLT
    MOV AX, 2
    HLT
    MOV AX, 3
    HLT
  )"));
  m.step_frame(0);
  EXPECT_EQ(m.reg(AX), 1);
  m.step_frame(0);
  EXPECT_EQ(m.reg(AX), 2);
  m.step_frame(0);
  EXPECT_EQ(m.reg(AX), 3);
}

TEST(Agent86Cpu, FaultsAreDeterministicAndSticky) {
  auto trap = run1("INT3");
  EXPECT_EQ(trap.fault(), Fault::kTrap);

  auto bad = run1("DB 0xFE");
  EXPECT_EQ(bad.fault(), Fault::kBadOpcode);

  auto runaway = run1("spin: JMP spin");
  EXPECT_EQ(runaway.fault(), Fault::kBudgetExceeded);

  // A faulted machine stops: state is frozen from the sync layer's view.
  const auto h = runaway.state_hash();
  const auto frame = runaway.frame();
  runaway.step_frame(0xFFFF);
  EXPECT_EQ(runaway.state_hash(), h);
  EXPECT_EQ(runaway.frame(), frame);
  EXPECT_TRUE(runaway.faulted());
}

TEST(Agent86Machine, InputBlockAndFrameCounterAreMemoryMapped) {
  Agent86Machine m(must_assemble(R"(
    MOV SI, 0F800h
    MOVB AX, [SI]        ; p0
    MOVB BX, [SI+1]      ; p1
    MOV CX, [SI+2]       ; frame lo
    HLT
    JMP 0x0100
  )"));
  m.step_frame(make_input(kBtnUp | kBtnA, kBtnLeft));
  EXPECT_EQ(m.reg(AX), kBtnUp | kBtnA);
  EXPECT_EQ(m.reg(BX), kBtnLeft);
  EXPECT_EQ(m.reg(CX), 0);  // counter of the frame being executed
  m.step_frame(0);
  EXPECT_EQ(m.reg(CX), 1);
}

TEST(Agent86Machine, RenderableExposesVideoPage) {
  Agent86Machine m(must_assemble(R"(
    MOV SI, 0B800h
    MOV AX, 7
    MOVB [SI+5], AX
    HLT
  )"));
  const emu::IDeterministicGame& game = m;
  const emu::IRenderableGame* r = game.renderable();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->fb_cols(), 64);
  EXPECT_EQ(r->fb_rows(), 32);
  m.step_frame(0);
  EXPECT_EQ(r->framebuffer()[5], 7);
  EXPECT_EQ(r->framebuffer().size(), kFbSize);
}

// ---- restore + incremental digest ------------------------------------------

// Snapshot header offsets: version(1) + checksum(8) + regs + ip(2).
constexpr std::size_t kSnapFlags = 9 + 2 * kNumRegs + 2;
constexpr std::size_t kSnapFault = kSnapFlags + 1;

InputWord next_input(std::uint32_t& rng) {
  rng = rng * 1664525u + 1013904223u;
  return static_cast<InputWord>(rng >> 16);
}

TEST(Agent86Restore, AfterDivergenceMatchesFreshLoad) {
  emu::set_state_digest_cross_check(true);
  auto m = make_machine("skirmish");
  std::uint32_t rng = 15;
  for (int i = 0; i < 40; ++i) {
    m->step_frame(next_input(rng));
    (void)m->state_digest(kV3);
  }
  const auto snap = m->save_state();
  for (int i = 0; i < 6; ++i) {
    m->step_frame(next_input(rng));
    (void)m->state_digest(kV3);
  }
  m->poke(0x4000, static_cast<std::uint8_t>(m->peek(0x4000) + 1));
  (void)m->state_digest(kV3);
  ASSERT_TRUE(m->load_state(snap));
  auto fresh = make_machine("skirmish");
  ASSERT_TRUE(fresh->load_state(snap));
  EXPECT_EQ(m->state_digest(kV3), fresh->state_digest(kV3));
  EXPECT_EQ(m->page_digests(), fresh->page_digests());
  emu::set_state_digest_cross_check(false);
  EXPECT_EQ(emu::state_digest_cross_check_failures(), 0u);
}

TEST(Agent86Restore, RehashesDirtyPageWhoseBytesMatchSnapshot) {
  // Written, digested, written back: the page is dirty with a stale cached
  // digest while its bytes equal the snapshot. Restore must keep it dirty.
  emu::set_state_digest_cross_check(true);
  auto m = make_machine("pong");
  std::uint32_t rng = 3;
  for (int i = 0; i < 5; ++i) m->step_frame(next_input(rng));
  (void)m->state_digest(kV3);
  const auto snap = m->save_state();
  const std::uint8_t orig = m->peek(0x4123);
  m->poke(0x4123, static_cast<std::uint8_t>(orig ^ 0x5A));
  (void)m->state_digest(kV3);
  m->poke(0x4123, orig);
  ASSERT_TRUE(m->load_state(snap));
  auto fresh = make_machine("pong");
  ASSERT_TRUE(fresh->load_state(snap));
  EXPECT_EQ(m->state_digest(kV3), fresh->state_digest(kV3));
  emu::set_state_digest_cross_check(false);
  EXPECT_EQ(emu::state_digest_cross_check_failures(), 0u);
}

TEST(Agent86Restore, RejectedSnapshotLeavesStateUntouched) {
  auto m = make_machine("havoc");
  std::uint32_t rng = 8;
  for (int i = 0; i < 3; ++i) m->step_frame(next_input(rng));
  const auto old_snap = m->save_state();
  for (int i = 0; i < 3; ++i) m->step_frame(next_input(rng));
  const auto before = m->save_state();
  const auto digest = m->state_digest(kV3);
  ASSERT_NE(old_snap, before);

  auto bad_fault = old_snap;
  bad_fault[kSnapFault] = static_cast<std::uint8_t>(Fault::kBudgetExceeded) + 1;
  auto bad_flags = old_snap;
  bad_flags[kSnapFlags] |= 0x08;
  for (const auto& bad : {bad_fault, bad_flags}) {
    EXPECT_FALSE(m->load_state(bad));
    EXPECT_EQ(m->save_state(), before);
    EXPECT_EQ(m->state_digest(kV3), digest);
  }
}

// ---- bundled games ---------------------------------------------------------

TEST(Agent86Games, CatalogueIsConsistent) {
  for (const auto name : game_names()) {
    const Program* p = program_by_name(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_EQ(p->name, name);
    auto m = make_machine(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->content_id(), p->checksum());
    EXPECT_EQ(m->content_name(), "agent86:" + std::string(name));
  }
  EXPECT_EQ(program_by_name("nope"), nullptr);
  EXPECT_EQ(make_machine("nope"), nullptr);
}

TEST(Agent86Games, ContentIdsAreDistinct) {
  EXPECT_NE(skirmish_program().checksum(), pong_program().checksum());
  EXPECT_NE(skirmish_program().checksum(), havoc_program().checksum());
  EXPECT_NE(pong_program().checksum(), havoc_program().checksum());
}

TEST(Agent86Games, RunWithoutFaultingAndDrawSomething) {
  for (const auto name : game_names()) {
    auto m = make_machine(name);
    ASSERT_NE(m, nullptr);
    std::uint32_t rng = 0xC0FFEE;
    for (int f = 0; f < 600; ++f) {
      rng = rng * 1664525u + 1013904223u;
      m->step_frame(static_cast<InputWord>(rng >> 16));
      ASSERT_EQ(m->fault(), Fault::kNone)
          << name << " faulted at frame " << f << ": " << fault_name(m->fault());
    }
    bool lit = false;
    for (const auto px : m->renderable()->framebuffer()) lit = lit || px != 0;
    EXPECT_TRUE(lit) << name << " drew nothing in 600 frames";
    EXPECT_LT(m->last_frame_cycles(), MachineConfig{}.cycles_per_frame / 2)
        << name << " leaves too little cycle headroom";
  }
}

}  // namespace
}  // namespace rtct::a86
