// agent86 predecode: the decoded form of a program image, built once per
// program and shared by every machine that runs it.
//
// agent86 code lives in writable RAM, so a decoded entry is only usable
// while the page holding it still matches the image. The table itself is
// immutable; each machine keeps a 256-bit "page still matches the image"
// bitmap (cleared by its stores, recomputed for the pages a snapshot
// restore rewrites) and decodes live from RAM wherever the bit is clear.
// An instruction that straddles a page end is always decoded live, so a
// store never has to invalidate a neighbouring page.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/cores/agent86/isa.h"
#include "src/emu/page_digest.h"

namespace rtct::a86 {

/// Pseudo-opcodes a decode can produce besides the real opcode bytes.
/// decode_at turns every byte that is not an opcode into kXBadOpcode, so
/// the table-only ones never come out of memory.
inline constexpr std::uint8_t kXFillB = 0xFB;      ///< table only: MOVB fill-loop head
inline constexpr std::uint8_t kXFillW = 0xFC;      ///< table only: MOV fill-loop head
inline constexpr std::uint8_t kXBadOpcode = 0xFD;  ///< not an opcode; 1 byte
inline constexpr std::uint8_t kXBadReg = 0xFE;     ///< names a register >= kNumRegs
inline constexpr std::uint8_t kXStraddle = 0xFF;   ///< table only: ends in the next page

/// One decoded instruction. Register-register and [r+d8] forms put the
/// high operand nibble in `a` and the low one in `b`; single-register
/// forms use `a`; OUT puts its register in `a` and its port in `imm`.
struct alignas(8) Decoded {
  std::uint8_t op = kXBadOpcode;  ///< opcode byte, or a pseudo-opcode above
  std::uint8_t a = 0;
  std::uint8_t b = 0;
  std::uint8_t len = 1;    ///< encoded length; only the cold paths read it
  std::uint16_t imm = 0;   ///< immediate, jump target, d8 or port
};

/// Decodes the instruction at `ip` of the 64 KiB space `mem`, wrapping at
/// 0xFFFF. Never returns kXStraddle.
inline Decoded decode_at(const std::uint8_t* mem, std::uint16_t ip) {
  const auto at = [mem, ip](int k) { return mem[static_cast<std::uint16_t>(ip + k)]; };
  Decoded d;
  d.op = at(0);
  switch (d.op) {
    case kNop: case kHlt: case kInt3: case kRet:
      return d;
    case kMovRI:
    case kAddRI: case kSubRI: case kAndRI: case kOrRI:
    case kXorRI: case kShlRI: case kShrRI: case kMulRI: case kCmpRI:
      d.a = at(1);
      d.imm = static_cast<std::uint16_t>(at(2) | (at(3) << 8));
      d.len = 4;
      break;
    case kMovRR:
    case kAddRR: case kSubRR: case kAndRR: case kOrRR:
    case kXorRR: case kShlRR: case kShrRR: case kMulRR: case kCmpRR:
      d.a = at(1) >> 4;
      d.b = at(1) & 15;
      d.len = 2;
      break;
    case kLdB: case kLdW: case kStB: case kStW:
      d.a = at(1) >> 4;
      d.b = at(1) & 15;
      d.imm = at(2);
      d.len = 3;
      break;
    case kNeg: case kNot: case kInc: case kDec: case kPush: case kPop:
      d.a = at(1);
      d.len = 2;
      break;
    case kJmp: case kJz: case kJnz: case kJc: case kJnc: case kJs: case kJns:
    case kLoop: case kCall:
      d.imm = static_cast<std::uint16_t>(at(1) | (at(2) << 8));
      d.len = 3;
      return d;
    case kOut:
      d.imm = at(1);
      d.a = at(2);
      d.len = 3;
      break;
    default:
      d.op = kXBadOpcode;
      return d;
  }
  if (d.a >= kNumRegs || d.b >= kNumRegs) d.op = kXBadReg;
  return d;
}

class PredecodedProgram {
 public:
  using PageBits = emu::PageDigestCache::PageBits;

  /// The table for `program`'s image, shared with every live machine whose
  /// program loads the same bytes at the same address.
  static std::shared_ptr<const PredecodedProgram> shared(const Program& program);

  /// Decodes the memory pages `program`'s image covers as reset leaves
  /// them (zero around the image).
  explicit PredecodedProgram(const Program& program);

  /// Indexed by address, from 0 to the end of the last image page. An
  /// entry is current only while its page's bit is set in the running
  /// machine's bitmap, which implies the page is one of image_pages().
  ///
  /// The head of a counted fill loop that lies in one page,
  ///   head: MOV/MOVB [rP+d], rV ; ADD rP, k | INC rP ; LOOP head
  /// with rP, rV and CX distinct, decodes to kXFillW / kXFillB in place of
  /// kStW / kStB; its other fields are the store's. The step and LOOP
  /// entries follow it at head + 3.
  [[nodiscard]] const Decoded* entries() const { return entries_.data(); }
  /// The bitmap of a freshly reset machine: every page the image covers.
  [[nodiscard]] const PageBits& image_pages() const { return image_pages_; }

  /// For every page set in `written`, sets or clears its bit in `valid`
  /// by whether `mem` (the 64 KiB space) holds that page's image bytes.
  void revalidate(const PageBits& written, const std::uint8_t* mem, PageBits& valid) const;

 private:
  /// Whether reset would load `image` at `org` exactly as this table's.
  [[nodiscard]] bool loads(std::uint16_t org, std::span<const std::uint8_t> image) const;

  std::uint16_t org_ = 0;
  std::size_t image_size_ = 0;  ///< bytes reset loads at org_
  std::size_t first_page_ = 0;
  std::size_t num_pages_ = 0;
  std::vector<std::uint8_t> bytes_;  ///< reset-time bytes of the covered pages
  std::vector<Decoded> entries_;     ///< one per address below the last covered page's end
  PageBits image_pages_{};
};

}  // namespace rtct::a86
