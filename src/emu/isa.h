// AC16: the instruction-set architecture of rtct's from-scratch arcade VM.
//
// The paper builds on MAME emulating proprietary arcade hardware; we cannot
// ship that, so rtct_emu defines a tiny deterministic arcade machine that
// honours the same contract the sync layer relies on (§3: "the original
// game VM is deterministic... with the same initial state and same input
// sequence, the VM always produces the same sequence of output states").
//
// AC16 at a glance:
//   * 16 general 16-bit registers r0..r15 (r15 doubles as the stack pointer
//     by convention), a 16-bit PC, and Z/N/C flags.
//   * byte-addressable 64 KiB space; fixed 4-byte instructions
//     [opcode][a][b][c], imm16 = b | c<<8.
//   * IN/OUT ports for controller input, the frame counter and a tone
//     channel; HALT yields the CPU until the next video frame.
// No floating point, no host-time access, no uninitialized state: every
// source of nondeterminism the paper warns about (§5) is excluded by
// construction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rtct::emu {

inline constexpr int kNumRegs = 16;
inline constexpr int kSpReg = 15;  ///< stack-pointer convention
inline constexpr std::size_t kInstrBytes = 4;

// Memory-map facts every interpreter backend needs (the full map lives in
// machine.h): ROM occupies 0x0000–0x7FFF and is immutable once loaded —
// CPU stores below kRamBase fault — which is what makes the predecoded
// instruction cache sound.
inline constexpr std::uint16_t kRamBase = 0x8000;

/// Dirty-page tracking granularity for the incremental (version-3) state
/// digest: the mutable 32 KiB is covered by 128 pages of 256 bytes. The
/// fast interpreter's inlined write barrier maintains the same bitmap
/// ArcadeMachine::write8 does, so it needs the geometry here.
inline constexpr std::size_t kPageSize = 256;
inline constexpr unsigned kPageShift = 8;
inline constexpr std::size_t kNumMutablePages = (0x10000 - kRamBase) / kPageSize;

enum class Op : std::uint8_t {
  kNop = 0x00,
  kHalt = 0x01,  ///< end of frame: CPU sleeps until the next vblank
  kBrk = 0x02,   ///< programming-error trap; faults the machine

  kLdi = 0x10,  ///< rd = imm16
  kMov = 0x11,  ///< rd = rs
  // Memory ops encode two registers plus an 8-bit offset in byte c.
  kLdb = 0x12,  ///< rd = zx(mem8[rs + off8])   (a=rd, b=rs, c=off8)
  kLdw = 0x13,  ///< rd = mem16[rs + off8]
  kStb = 0x14,  ///< mem8[ra + off8] = low8(rb) (a=ra, b=rb, c=off8)
  kStw = 0x15,  ///< mem16[ra + off8] = rb

  kAdd = 0x20,  ///< rd += rs (C = carry out)
  kSub = 0x21,  ///< rd -= rs (C = borrow)
  kAnd = 0x22,
  kOr = 0x23,
  kXor = 0x24,
  kShl = 0x25,  ///< rd <<= (rs & 15), C = last bit shifted out
  kShr = 0x26,  ///< logical right shift
  kMul = 0x27,  ///< rd = low16(rd * rs)
  kNeg = 0x28,  ///< rd = -rd
  kNot = 0x29,  ///< rd = ~rd

  kAddi = 0x30,  ///< rd += imm16
  kSubi = 0x31,
  kAndi = 0x32,
  kOri = 0x33,
  kXori = 0x34,
  kShli = 0x35,
  kShri = 0x36,
  kMuli = 0x37,
  kCmp = 0x38,   ///< flags from rd - rs
  kCmpi = 0x39,  ///< flags from rd - imm16

  kJmp = 0x40,  ///< pc = imm16
  kJz = 0x41,   ///< if Z
  kJnz = 0x42,  ///< if !Z
  kJc = 0x43,   ///< if C (unsigned <  after CMP)
  kJnc = 0x44,  ///< if !C (unsigned >= after CMP)
  kJn = 0x45,   ///< if N (bit15 of result)
  kJnn = 0x46,  ///< if !N

  kCall = 0x48,  ///< push pc_next, pc = imm16
  kRet = 0x49,   ///< pc = pop
  kPush = 0x4A,  ///< sp -= 2; mem16[sp] = rs
  kPop = 0x4B,   ///< rd = mem16[sp]; sp += 2

  kIn = 0x50,   ///< rd = port[imm8]  (a=rd, b=port)
  kOut = 0x51,  ///< port[imm8] = rs  (a=port, b=rs)
};

/// IO port numbers for kIn / kOut.
enum class Port : std::uint8_t {
  kPlayer0 = 0,    ///< IN: player 0 controller byte (latched at frame start)
  kPlayer1 = 1,    ///< IN: player 1 controller byte
  kFrameLo = 2,    ///< IN: frame counter low 16 bits
  kFrameHi = 3,    ///< IN: frame counter bits 16..31
  kTone = 4,       ///< OUT: tone-channel frequency (0 = silence)
  kDebug = 5,      ///< OUT: appended to the machine's debug log (tests)
};

/// A decoded instruction.
struct Instr {
  Op op = Op::kNop;
  std::uint8_t a = 0;
  std::uint8_t b = 0;
  std::uint8_t c = 0;

  [[nodiscard]] std::uint16_t imm() const {
    return static_cast<std::uint16_t>(b | (c << 8));
  }
};

/// Encodes into the fixed 4-byte form.
void encode(const Instr& ins, std::uint8_t out[4]);
/// Decodes; never fails structurally (any 4 bytes decode), validity of the
/// opcode is checked at execution time.
Instr decode(const std::uint8_t in[4]);

/// True if the byte names a defined opcode.
bool is_valid_opcode(std::uint8_t op);

/// Cycle cost of an instruction (used for the per-frame budget).
int cycle_cost(Op op);

/// Mnemonic for disassembly/diagnostics; "???" for invalid opcodes.
std::string mnemonic(Op op);

/// Decode-once cache of the loaded ROM image, built at ArcadeMachine
/// construction. ROM writes fault (the region can never change after
/// load), so every byte address of the image whose 4-byte fetch window lies
/// entirely below kRamBase can be decoded ahead of time — the fast
/// interpreter replaces the per-instruction 4x byte fetch + decode() with a
/// pointer to the entry at pc. The table covers [0, limit()), where
/// limit() = min(image size, kLimit): an entry whose window runs past the
/// image reads the zeros the machine's memory holds there. Everything at or
/// above limit() takes the byte-fetch path: the zero tail of ROM above the
/// image (exact, because those bytes never change either), addresses in
/// [kLimit, kRamBase) whose window crosses into RAM, and RAM itself, whose
/// bytes mutate at runtime. Entries keep undefined opcodes as they are: the
/// interpreter's dispatch table sends them to its bad-opcode handler.
///
/// The one rewrite is the fill marker. The head of a counted fill loop
///   head: STB/STW rP, rV, off ; ADDI rP, k ; SUBI rC, 1 ; JNZ head
/// whose registers rP, rV and rC are distinct and whose four instructions
/// all lie in the table gets op kFillStb or kFillStw in place of its STB
/// or STW byte. Both are above 0xFF, so no byte in memory decodes to them:
/// only this table's entries reach the fast interpreter's fill handler.
struct PredecodedRom {
  /// Dispatch indices of a fill-loop head whose store is STB / STW.
  static constexpr std::uint16_t kFillStb = 0x100;
  static constexpr std::uint16_t kFillStw = 0x101;
  /// Cycles one iteration of a fill loop costs: STB/STW 2, ADDI, SUBI and
  /// JNZ 1 each (cycle_cost).
  static constexpr int kFillIterationCycles = 5;

  /// 8 bytes, so the fetch turns pc into an entry address with one scaled
  /// index (a 6-byte stride takes two dependent address computations).
  struct alignas(8) Entry {
    std::uint16_t imm = 0;  ///< b | c<<8, precomputed
    std::uint16_t op = 0;   ///< raw opcode byte, or a fill marker
    std::uint8_t a = 0;
    std::uint8_t b = 0;
    std::uint8_t c = 0;
  };

  /// First byte address NOT covered by the cache: the last address whose
  /// whole 4-byte window stays inside ROM is kRamBase - kInstrBytes.
  static constexpr std::uint16_t kLimit =
      static_cast<std::uint16_t>(kRamBase - kInstrBytes + 1);

  /// `rom_image` is the ROM as loaded at 0x0000 (at most kRamBase bytes);
  /// bytes beyond it read as zero, exactly like the machine's memory.
  explicit PredecodedRom(std::span<const std::uint8_t> rom_image);

  /// First byte address the table does not cover: min(image size, kLimit).
  [[nodiscard]] std::size_t limit() const { return entries.size(); }

  std::vector<Entry> entries;  ///< limit() entries, indexed by byte address
};

}  // namespace rtct::emu
