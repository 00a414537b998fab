// agent86 ISA: a compact 8086-flavored 16-bit virtual machine, the second
// deterministic core behind the GameCore registry.
//
// Where AC16 is a RISC-ish arcade board (fixed 4-byte instructions,
// immutable ROM, port-mapped IO), agent86 is deliberately the opposite
// shape — variable-length x86-style encodings, a flat fully *mutable*
// 64 KiB von Neumann memory (the program image lives in RAM and is hashed
// and serialized like any other state), and memory-mapped input/video.
// Running the identical sync stack over both is the paper's §2 game
// transparency claim demonstrated across VMs, not just across ROMs.
//
// Memory map (byte addresses, little-endian words, everything writable):
//   0x0000–0xFFFF  flat RAM; programs conventionally ORG 0x0100
//   0xB800–0xBFFF  text video, 64 cols x 32 rows, 1 byte = palette index
//   0xF800–0xF805  input block, rewritten by the machine at frame start:
//                    0xF800  player-0 button byte
//                    0xF801  player-1 button byte
//                    0xF802  frame counter low word
//                    0xF804  frame counter high word
//   stack grows down from 0xF7FE (just below the input block)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rtct::a86 {

inline constexpr std::size_t kMemSize = 0x10000;

inline constexpr std::uint16_t kVideoBase = 0xB800;
inline constexpr int kFbCols = 64;
inline constexpr int kFbRows = 32;
inline constexpr std::size_t kFbSize = kFbCols * kFbRows;  // 2048 bytes

inline constexpr std::uint16_t kInputBase = 0xF800;
inline constexpr std::uint16_t kInitialSp = 0xF7FE;
inline constexpr std::uint16_t kDefaultOrg = 0x0100;

/// Register file: seven 16-bit registers. SP is architectural (PUSH/POP/
/// CALL/RET use it) but otherwise general-purpose; LOOP hardwires CX.
enum Reg : std::uint8_t { AX = 0, BX, CX, DX, SI, DI, SP, kNumRegs };

/// Opcode bytes. Operand encodings (instruction length includes opcode):
///   rr    one byte, (first operand << 4) | second operand
///   r     one byte, register index
///   imm   16-bit little-endian immediate
///   d8    unsigned 8-bit displacement added to the base register
///         (deviation from the 8086's signed disp8 — an unsigned byte
///         makes one base register cover a full 256 B state page)
enum Op : std::uint8_t {
  kNop = 0x00,   // 1 B
  kHlt = 0x01,   // 1 B — end of frame; execution resumes here next frame
  kInt3 = 0x02,  // 1 B — explicit trap, faults the machine

  kMovRI = 0x10,  // 4 B  MOV r, imm
  kMovRR = 0x11,  // 2 B  MOV r, r
  kLdB = 0x12,    // 3 B  MOVB r, [r+d8]   (zero-extended byte load)
  kLdW = 0x13,    // 3 B  MOV  r, [r+d8]
  kStB = 0x14,    // 3 B  MOVB [r+d8], r   (stores the low byte)
  kStW = 0x15,    // 3 B  MOV  [r+d8], r

  kAddRR = 0x20,  // 2 B
  kSubRR = 0x21,
  kAndRR = 0x22,
  kOrRR = 0x23,
  kXorRR = 0x24,
  kShlRR = 0x25,
  kShrRR = 0x26,
  kMulRR = 0x27,  // low 16 bits; CF = high word nonzero
  kNeg = 0x28,    // 2 B  [op][r]
  kNot = 0x29,
  kInc = 0x2A,
  kDec = 0x2B,

  kAddRI = 0x30,  // 4 B  [op][r][imm]
  kSubRI = 0x31,
  kAndRI = 0x32,
  kOrRI = 0x33,
  kXorRI = 0x34,
  kShlRI = 0x35,
  kShrRI = 0x36,
  kMulRI = 0x37,
  kCmpRR = 0x38,  // 2 B
  kCmpRI = 0x39,  // 4 B

  kJmp = 0x40,   // 3 B  [op][imm]
  kJz = 0x41,    // JZ/JE
  kJnz = 0x42,   // JNZ/JNE
  kJc = 0x43,    // JC/JB
  kJnc = 0x44,   // JNC/JAE
  kJs = 0x45,
  kJns = 0x46,
  kLoop = 0x47,  // DEC CX (flags untouched); jump while CX != 0
  kCall = 0x48,
  kRet = 0x49,  // 1 B
  kPush = 0x4A,  // 2 B  [op][r]
  kPop = 0x4B,

  kOut = 0x50,  // 3 B  [op][port][r] — port 0 debug log, port 1 tone
};

/// Execution faults. Same contract as AC16: a faulted machine stops making
/// progress (deterministically), and faults are bugs in the program.
enum class Fault : std::uint8_t {
  kNone = 0,
  kBadOpcode,
  kBadReg,          ///< operand byte names a register >= kNumRegs
  kTrap,            ///< INT3
  kBudgetExceeded,  ///< frame did not HLT within the cycle budget
};

const char* fault_name(Fault f);

/// Debug/tone output ports (OUT imm8, r).
inline constexpr std::uint8_t kPortDebug = 0;
inline constexpr std::uint8_t kPortTone = 1;

/// An assembled agent86 program: the byte image loaded at `org` on reset,
/// plus the entry point. The agent86 analogue of emu::Rom.
struct Program {
  std::string name;  ///< registry game name (e.g. "skirmish")
  std::vector<std::uint8_t> image;
  std::uint16_t org = kDefaultOrg;
  std::uint16_t entry = kDefaultOrg;

  /// Content identity: FNV-1a over a core-distinguishing domain tag, the
  /// load address, entry point and image bytes. The tag guarantees an
  /// agent86 game can never collide with an AC16 ROM of the same name —
  /// the session handshake must refuse cross-core pairs (§2 "same game
  /// image").
  [[nodiscard]] std::uint64_t checksum() const;
};

}  // namespace rtct::a86
