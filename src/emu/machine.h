// ArcadeMachine: the complete emulated console (CPU + memory map + video +
// input latch + tone channel), rtct's stand-in for a MAME-emulated arcade
// board. Implements IDeterministicGame, the only surface the sync layer
// ever touches.
//
// Memory map (byte addresses):
//   0x0000–0x7FFF  ROM (writes fault the machine)
//   0x8000–0x9FFF  general RAM
//   0xA000–0xABFF  framebuffer, 64 cols x 48 rows, 1 byte = palette index
//   0xAC00–0xFFFF  general RAM (stack grows down from 0xFFFE)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/emu/cpu.h"
#include "src/emu/game.h"
#include "src/emu/paged_state.h"
#include "src/emu/rom.h"

namespace rtct::emu {

// kRamBase, kPageSize/kPageShift/kNumMutablePages live in isa.h (both
// interpreter backends need them); the video/stack geometry is here.
inline constexpr std::uint16_t kFbBase = 0xA000;
inline constexpr int kFbCols = 64;
inline constexpr int kFbRows = 48;
inline constexpr std::size_t kFbSize = kFbCols * kFbRows;  // 3072 bytes
inline constexpr std::uint16_t kInitialSp = 0xFFFE;

struct MachineConfig {
  /// Per-frame cycle budget; exceeding it faults (a ROM must HALT once per
  /// frame, like real arcade code waiting for vblank).
  int cycles_per_frame = 100000;
  /// Run frames on the original virtual-Bus byte-fetch interpreter instead
  /// of the predecoded fast path. The two backends are bit-identical in
  /// observable state (enforced by emu_differential_test and the chaos
  /// soak); the reference exists as the oracle and for A/B benching. Host
  /// configuration only: not serialized, not hashed.
  bool reference_interpreter = false;
};

class ArcadeMachine final : public IDeterministicGame,
                            public IRenderableGame,
                            private Bus {
 public:
  explicit ArcadeMachine(Rom rom, MachineConfig cfg = {});

  // IDeterministicGame
  void reset() override;
  void step_frame(InputWord input) override;
  [[nodiscard]] std::uint64_t state_hash() const override { return state_digest(1); }
  [[nodiscard]] std::uint64_t state_digest(int version) const override {
    return state_.digest(header(), version);
  }
  [[nodiscard]] std::vector<std::uint64_t> page_digests() const override {
    return state_.page_digests();
  }
  [[nodiscard]] std::uint32_t page_digest_base() const override { return kRamBase; }
  [[nodiscard]] std::vector<std::uint8_t> save_state() const override {
    std::vector<std::uint8_t> out;
    save_state_into(out);
    return out;
  }
  void save_state_into(std::vector<std::uint8_t>& out) const override {
    state_.save_into(header(), out);
  }
  bool load_state(std::span<const std::uint8_t> data) override;
  [[nodiscard]] FrameNo frame() const override { return frame_; }
  [[nodiscard]] std::uint64_t content_id() const override { return state_.content_id(); }
  [[nodiscard]] std::string content_name() const override { return "ac16:" + rom_.title; }
  [[nodiscard]] bool faulted() const override { return cpu_.fault() != Fault::kNone; }
  [[nodiscard]] const IRenderableGame* renderable() const override { return this; }

  // IRenderableGame
  [[nodiscard]] int fb_cols() const override { return kFbCols; }
  [[nodiscard]] int fb_rows() const override { return kFbRows; }
  [[nodiscard]] std::span<const std::uint8_t> framebuffer() const override {
    return {state_.mem() + kFbBase, kFbSize};
  }

  // Introspection (rendering, tests, examples).
  [[nodiscard]] std::uint16_t tone() const { return tone_; }
  [[nodiscard]] Fault fault() const { return cpu_.fault(); }
  [[nodiscard]] const Rom& rom() const { return rom_; }
  [[nodiscard]] const Cpu& cpu() const { return cpu_; }
  [[nodiscard]] int last_frame_cycles() const { return last_frame_cycles_; }

  /// Raw memory poke, through the bus (so dirty-page tracking stays
  /// coherent; ROM-region writes are ignored exactly like CPU stores).
  /// For tests and divergence-injection tooling only — a poked replica is
  /// by construction desynced from its peers.
  void poke(std::uint16_t addr, std::uint8_t v) { (void)write8(addr, v); }

  /// Raw memory peek for tests (any address, including ROM).
  [[nodiscard]] std::uint8_t peek(std::uint16_t addr) const { return state_.mem()[addr]; }
  [[nodiscard]] std::uint16_t peek16(std::uint16_t addr) const {
    const std::uint8_t* mem = state_.mem();
    return static_cast<std::uint16_t>(mem[addr] |
                                      (mem[static_cast<std::uint16_t>(addr + 1)] << 8));
  }

  /// Values written to Port::kDebug this frame-run (diagnostic only; not
  /// part of the synchronized state, not hashed, not serialized).
  [[nodiscard]] const std::vector<std::uint16_t>& debug_log() const { return debug_log_; }

 private:
  // Bus
  std::uint8_t read8(std::uint16_t addr) override { return state_.mem()[addr]; }
  bool write8(std::uint16_t addr, std::uint8_t v) override {
    if (addr < kRamBase) return false;  // ROM region
    state_.mem()[addr] = v;
    state_.mark_dirty(addr);
    return true;
  }
  std::uint16_t in_port(std::uint8_t port) override;
  void out_port(std::uint8_t port, std::uint16_t v) override;

  /// Everything but memory, as PagedState hashes, digests and snapshots it.
  struct Header {
    Cpu::RawState cpu;
    std::uint16_t input_latch;
    std::uint16_t tone;
    std::uint64_t frame;

    template <typename H, typename Sink>
    static void visit(H& h, Sink&& sink) {
      for (auto& r : h.cpu.regs) sink.u16(r);
      sink.u16(h.cpu.pc);
      sink.u8(h.cpu.flags);
      sink.u8(h.cpu.fault);
      sink.u16(h.input_latch);
      sink.u16(h.tone);
      sink.u64(h.frame);
    }
    /// save_state only ever writes Z/N/C and a Fault enumerator.
    [[nodiscard]] bool valid() const {
      return cpu.fault <= static_cast<std::uint8_t>(Fault::kBrk) && cpu.flags <= 7;
    }
  };
  [[nodiscard]] Header header() const {
    return {cpu_.raw_state(), input_latch_, tone_, static_cast<std::uint64_t>(frame_)};
  }

  Rom rom_;
  /// Decode-once instruction cache of the (immutable) ROM image; never
  /// invalidated because CPU stores below kRamBase fault and load_state
  /// only restores RAM.
  PredecodedRom predecode_;
  MachineConfig cfg_;
  Cpu cpu_;
  /// The 64 KiB address space, with the digest cache and the snapshot
  /// framing over its mutable region (RAM + framebuffer); the content id
  /// is rom_.checksum(), hashed once.
  PagedState state_;
  InputWord input_latch_ = 0;      ///< latched at frame start
  std::uint16_t tone_ = 0;
  FrameNo frame_ = 0;
  int last_frame_cycles_ = 0;
  std::vector<std::uint16_t> debug_log_;
};

}  // namespace rtct::emu
