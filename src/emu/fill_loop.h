// Counted fill loops: the block store both fast interpreters run in place
// of the iterations of a recognised store loop.
//
// A game clears its framebuffer with a four-instruction loop (AC16
// `STB rP, rV, off; ADDI rP, k; SUBI rC, 1; JNZ head`, agent86
// `MOV [rP+d], rV; ADD rP, k; LOOP head`) that runs thousands of times a
// frame. Each core's predecode marks the loop's head; when the fast
// interpreter reaches a marked head and the whole loop is safe to skip,
// it runs every iteration but the last as one block_fill, and the last
// through its ordinary handlers. What "safe" means (registers, range and
// budget) is each core's own rule; this header holds only the arithmetic
// both share.
#pragma once

#include <cstdint>
#include <cstring>

#include "src/emu/isa.h"

namespace rtct::emu {

/// Iterations of a loop that decrements a 16-bit counter and repeats while
/// it is nonzero: a counter of 0 wraps and runs 65,536 times.
inline std::uint32_t loop_iterations(std::uint16_t counter) {
  return counter == 0 ? 0x10000u : counter;
}

/// The last byte address `iters` >= 1 iterations write when each stores
/// `width` bytes at first, first + stride, ..., computed without wrapping:
/// above 0xFFFF means the stores wrap around the address space.
inline std::uint64_t fill_last_byte(std::uint32_t first, std::uint32_t iters,
                                    std::uint16_t stride, unsigned width) {
  return first + std::uint64_t{iters - 1} * stride + width - 1;
}

/// Runs the stores of `iters` >= 1 iterations, in order: iteration i writes
/// the low `width` (1 or 2) bytes of `value`, little-endian, at
/// first + i * stride. The caller has checked that fill_last_byte stays at
/// or below 0xFFFF. Calls mark_page(p) for every 256-byte page p written,
/// and for no other page.
template <typename MarkPage>
void block_fill(std::uint8_t* mem, std::uint32_t first, std::uint32_t iters,
                std::uint16_t stride, unsigned width, std::uint16_t value,
                MarkPage&& mark_page) {
  const auto lo = static_cast<std::uint8_t>(value & 0xFF);
  const auto hi = static_cast<std::uint8_t>(value >> 8);
  const auto last = static_cast<std::uint32_t>(fill_last_byte(first, iters, stride, width));
  if (stride == width && (width == 1 || lo == hi)) {
    std::memset(mem + first, lo, last + 1 - first);
  } else {
    // Strides below the width overlap, so the stores keep their order.
    std::uint32_t at = first;
    for (std::uint32_t i = 0; i < iters; ++i, at += stride) {
      mem[at] = lo;
      if (width == 2) mem[at + 1] = hi;
    }
  }
  if (stride < kPageSize) {
    // Consecutive stores are less than a page apart: every page from the
    // first byte's to the last byte's holds one.
    for (std::uint32_t p = first >> kPageShift; p <= last >> kPageShift; ++p) mark_page(p);
  } else {
    std::uint32_t at = first;
    for (std::uint32_t i = 0; i < iters; ++i, at += stride) {
      mark_page(at >> kPageShift);
      mark_page((at + width - 1) >> kPageShift);
    }
  }
}

}  // namespace rtct::emu
