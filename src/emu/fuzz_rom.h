// Structure-aware random ROM generation for differential interpreter
// testing.
//
// The fast interpreter (predecoded ROM, devirtualized memory, threaded
// dispatch) is only admissible because it is bit-identical to the
// reference interpreter; the bundled games alone exercise a benign subset
// of the ISA, so the differential harness also runs machine-generated
// ROMs biased toward the edges where the two backends could plausibly
// diverge: the ROM/RAM fetch boundary, unaligned jump targets, stores
// that fault on ROM, stack traffic through wild pointers, runaway loops
// hitting the cycle budget, counted fill loops the fast interpreter may
// run as one block store, and the occasional invalid opcode. A fuzz ROM
// may fault — faults are part of the observable state being compared, not
// errors.
#pragma once

#include <cstdint>

#include "src/emu/rom.h"

namespace rtct::emu {

/// Deterministic: the same seed always yields the same ROM.
Rom make_fuzz_rom(std::uint64_t seed);

}  // namespace rtct::emu
