// AC16 CPU core: fetch/decode/execute interpreter.
#pragma once

#include <cstdint>
#include <cstring>

#include "src/emu/isa.h"

namespace rtct::emu {

/// Execution faults. A faulted machine stops making progress; faults are
/// programming errors in the ROM (or a runaway frame), never expected in a
/// correct game, and tests assert their absence.
enum class Fault : std::uint8_t {
  kNone = 0,
  kBadOpcode,
  kRomWrite,
  kBudgetExceeded,  ///< frame did not HALT within the cycle budget
  kBrk,             ///< explicit BRK trap
};

const char* fault_name(Fault f);

/// Name of the compiled-in fast-interpreter dispatch backend:
/// "computed-goto" (RTCT_THREADED_DISPATCH on GCC/Clang) or "switch".
const char* dispatch_backend_name();

/// Memory / IO seen by the CPU. Implemented by ArcadeMachine.
class Bus {
 public:
  virtual ~Bus() = default;
  virtual std::uint8_t read8(std::uint16_t addr) = 0;
  /// Returns false if the address is not writable (ROM) — faults the CPU.
  virtual bool write8(std::uint16_t addr, std::uint8_t v) = 0;
  virtual std::uint16_t in_port(std::uint8_t port) = 0;
  virtual void out_port(std::uint8_t port, std::uint16_t v) = 0;
};

/// Register file + flags + sequencer. Pure integer machine: all arithmetic
/// wraps mod 2^16, so behaviour is identical on every host.
class Cpu {
 public:
  void reset(std::uint16_t entry, std::uint16_t initial_sp);

  /// Resumes execution (after the previous frame's HALT) and runs until the
  /// ROM executes HALT again, a fault occurs, or `cycle_budget` cycles
  /// elapse (which raises kBudgetExceeded). Returns cycles consumed.
  ///
  /// This is the REFERENCE interpreter: every access goes through the
  /// virtual Bus and every instruction is fetched byte-by-byte and
  /// decoded. It is kept as the oracle the fast path is differentially
  /// tested against (emu_differential_test), and as the backend for
  /// tests/tools that substitute their own Bus.
  int run_frame(Bus& bus, int cycle_budget);

  /// Fast-path variant of run_frame with bit-identical observable
  /// behaviour (state, faults, cycle accounting — enforced by the
  /// differential harness, not assumed):
  ///   * instructions at pc < rom.limit() (the loaded image, capped at
  ///     PredecodedRom::kLimit) are read through a pointer into the
  ///     predecoded ROM cache (instead of 4 virtual fetches + decode); pc
  ///     at/above the limit (the zero tail of ROM past the image, the
  ///     ROM/RAM boundary, execute-from-RAM, wraparound) decodes the bytes
  ///     into one local entry, read through the same pointer;
  ///   * memory runs through `mem` (the 64 KiB space) with an inlined
  ///     write barrier that preserves the ROM-write fault and the
  ///     dirty-page bitmap of ArcadeMachine::write8 exactly;
  ///   * a counted fill loop the predecode marked runs all but its last
  ///     iteration as one block store, whenever that is exact (the whole
  ///     loop fits in the budget and those stores stay in RAM);
  ///   * `ports` is only consulted for IN/OUT (cold);
  ///   * dispatch is computed-goto on GCC/Clang when built with
  ///     RTCT_THREADED_DISPATCH (the default), else a switch; either one
  ///     sends an undefined opcode to the bad-opcode fault.
  int run_frame_fast(std::uint8_t* mem, std::uint64_t* dirty_bitmap, Bus& ports,
                     const PredecodedRom& rom, int cycle_budget);

  [[nodiscard]] Fault fault() const { return fault_; }
  [[nodiscard]] std::uint16_t pc() const { return pc_; }
  [[nodiscard]] std::uint16_t reg(int i) const { return regs_[i]; }
  [[nodiscard]] bool flag_z() const { return z_; }
  [[nodiscard]] bool flag_n() const { return n_; }
  [[nodiscard]] bool flag_c() const { return c_; }

  /// The synchronized CPU state, as ArcadeMachine's snapshot header
  /// carries it.
  struct RawState {
    std::uint16_t regs[kNumRegs];
    std::uint16_t pc;
    std::uint8_t flags;  ///< Z | N << 1 | C << 2
    std::uint8_t fault;  ///< a Fault enumerator
  };
  [[nodiscard]] RawState raw_state() const {
    RawState s{{}, pc_, static_cast<std::uint8_t>((z_ ? 1 : 0) | (n_ ? 2 : 0) | (c_ ? 4 : 0)),
               static_cast<std::uint8_t>(fault_)};
    std::memcpy(s.regs, regs_, sizeof s.regs);
    return s;
  }
  void restore(const RawState& s);

 private:
  void exec(Bus& bus, const Instr& ins);
  void set_zn(std::uint16_t v) {
    z_ = v == 0;
    n_ = (v & 0x8000) != 0;
  }
  std::uint16_t read16(Bus& bus, std::uint16_t addr) {
    const std::uint16_t lo = bus.read8(addr);
    const std::uint16_t hi = bus.read8(static_cast<std::uint16_t>(addr + 1));
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }
  bool write16(Bus& bus, std::uint16_t addr, std::uint16_t v) {
    return bus.write8(addr, static_cast<std::uint8_t>(v & 0xFF)) &&
           bus.write8(static_cast<std::uint16_t>(addr + 1), static_cast<std::uint8_t>(v >> 8));
  }
  void push16(Bus& bus, std::uint16_t v) {
    regs_[kSpReg] = static_cast<std::uint16_t>(regs_[kSpReg] - 2);
    if (!write16(bus, regs_[kSpReg], v)) fault_ = Fault::kRomWrite;
  }
  std::uint16_t pop16(Bus& bus) {
    const std::uint16_t v = read16(bus, regs_[kSpReg]);
    regs_[kSpReg] = static_cast<std::uint16_t>(regs_[kSpReg] + 2);
    return v;
  }

  std::uint16_t regs_[kNumRegs] = {};
  std::uint16_t pc_ = 0;
  bool z_ = false, n_ = false, c_ = false;
  bool halted_ = false;
  Fault fault_ = Fault::kNone;
};

}  // namespace rtct::emu
