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
#include <memory>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/emu/cpu.h"
#include "src/emu/game.h"
#include "src/emu/page_digest.h"
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
  [[nodiscard]] std::uint64_t state_hash() const override;
  [[nodiscard]] std::uint64_t state_digest(int version) const override;
  [[nodiscard]] std::vector<std::uint64_t> page_digests() const override;
  [[nodiscard]] std::uint32_t page_digest_base() const override { return kRamBase; }
  [[nodiscard]] std::vector<std::uint8_t> save_state() const override;
  void save_state_into(std::vector<std::uint8_t>& out) const override;
  bool load_state(std::span<const std::uint8_t> data) override;
  [[nodiscard]] FrameNo frame() const override { return frame_; }
  [[nodiscard]] std::uint64_t content_id() const override { return content_id_; }
  [[nodiscard]] std::string content_name() const override { return "ac16:" + rom_.title; }
  [[nodiscard]] bool faulted() const override { return cpu_.fault() != Fault::kNone; }
  [[nodiscard]] const IRenderableGame* renderable() const override { return this; }

  // IRenderableGame
  [[nodiscard]] int fb_cols() const override { return kFbCols; }
  [[nodiscard]] int fb_rows() const override { return kFbRows; }
  [[nodiscard]] std::span<const std::uint8_t> framebuffer() const override {
    return {mem_.get() + kFbBase, kFbSize};
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
  [[nodiscard]] std::uint8_t peek(std::uint16_t addr) const { return mem_[addr]; }
  [[nodiscard]] std::uint16_t peek16(std::uint16_t addr) const {
    return static_cast<std::uint16_t>(mem_[addr] |
                                      (mem_[static_cast<std::uint16_t>(addr + 1)] << 8));
  }

  /// Values written to Port::kDebug this frame-run (diagnostic only; not
  /// part of the synchronized state, not hashed, not serialized).
  [[nodiscard]] const std::vector<std::uint16_t>& debug_log() const { return debug_log_; }

 private:
  // Bus
  std::uint8_t read8(std::uint16_t addr) override { return mem_[addr]; }
  bool write8(std::uint16_t addr, std::uint8_t v) override {
    if (addr < kRamBase) return false;  // ROM region
    mem_[addr] = v;
    pages_.mark_dirty(addr - kRamBase);
    return true;
  }
  std::uint16_t in_port(std::uint8_t port) override;
  void out_port(std::uint8_t port, std::uint16_t v) override;

  static constexpr std::uint8_t kStateVersion = 1;

  /// Everything but memory, in hash/digest/snapshot order.
  template <typename Sink>
  void visit_header(Sink&& sink) const {
    cpu_.visit_state(sink);
    sink.u16(input_latch_);
    sink.u16(tone_);
    sink.u64(static_cast<std::uint64_t>(frame_));
  }

  Rom rom_;
  /// rom_.checksum(), hashed once: every snapshot saved or loaded carries it.
  std::uint64_t content_id_;
  /// Decode-once instruction cache of the (immutable) ROM image; never
  /// invalidated because CPU stores below kRamBase fault and load_state
  /// only restores RAM.
  PredecodedRom predecode_;
  MachineConfig cfg_;
  Cpu cpu_;
  /// Full 64 KiB address space, allocated unfilled: reset() zeroes it.
  std::unique_ptr<std::uint8_t[]> mem_;
  InputWord input_latch_ = 0;      ///< latched at frame start
  std::uint16_t tone_ = 0;
  FrameNo frame_ = 0;
  int last_frame_cycles_ = 0;
  std::vector<std::uint16_t> debug_log_;

  // Incremental-digest cache over the mutable region, dirtied by write8
  // and refreshed lazily inside the (const) digest call, hence mutable.
  mutable PageDigestCache pages_{kNumMutablePages};
};

}  // namespace rtct::emu
