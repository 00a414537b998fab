// Agent86Machine: the complete second core — CPU, flat 64 KiB RAM,
// memory-mapped input block and text video — implementing the identical
// IDeterministicGame contract as AC16's ArcadeMachine. The sync layer
// (src/core) runs it without a single special case; that is the point.
//
// Determinism notes mirror AC16: pure 16-bit integer machine, all
// arithmetic wraps mod 2^16, inputs are latched into the 0xF800 block
// before the frame runs, and the per-frame cycle budget turns a runaway
// frame into a deterministic fault instead of a hang.
//
// Two interpreter backends run a frame: the fast path dispatches on the
// program's shared predecode table (predecode.h) wherever the page still
// matches the image, and the reference byte-fetch interpreter is kept as
// the oracle it is differentially tested against (emu_differential_test).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/cores/agent86/isa.h"
#include "src/cores/agent86/predecode.h"
#include "src/emu/game.h"
#include "src/emu/paged_state.h"

namespace rtct::a86 {

struct MachineConfig {
  /// Per-frame cycle budget; exceeding it faults (a program must HLT once
  /// per frame, like real-mode code spinning on vsync).
  int cycles_per_frame = 50000;
  /// Run frames on the original byte-fetch interpreter instead of the
  /// predecoded fast path. The two backends are bit-identical in
  /// observable state (enforced by emu_differential_test, the golden
  /// digest table and the chaos soak); the reference exists as the oracle
  /// and for A/B benching. Host configuration only: not serialized, not
  /// hashed. Same name and meaning as emu::MachineConfig's.
  bool reference_interpreter = false;
};

class Agent86Machine final : public emu::IDeterministicGame, public emu::IRenderableGame {
 public:
  explicit Agent86Machine(Program program, MachineConfig cfg = {});

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
  [[nodiscard]] std::uint32_t page_digest_base() const override { return 0; }
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
  [[nodiscard]] std::string content_name() const override {
    return "agent86:" + program_.name;
  }
  [[nodiscard]] bool faulted() const override { return fault_ != Fault::kNone; }
  [[nodiscard]] const emu::IRenderableGame* renderable() const override { return this; }

  // IRenderableGame
  [[nodiscard]] int fb_cols() const override { return kFbCols; }
  [[nodiscard]] int fb_rows() const override { return kFbRows; }
  [[nodiscard]] std::span<const std::uint8_t> framebuffer() const override {
    return {state_.mem() + kVideoBase, kFbSize};
  }

  // Introspection (tests, tools, benches).
  [[nodiscard]] Fault fault() const { return fault_; }
  [[nodiscard]] std::uint16_t reg(Reg r) const { return regs_[r]; }
  [[nodiscard]] std::uint16_t ip() const { return ip_; }
  [[nodiscard]] std::uint16_t tone() const { return tone_; }
  [[nodiscard]] const Program& program() const { return program_; }
  [[nodiscard]] int last_frame_cycles() const { return last_frame_cycles_; }
  [[nodiscard]] const std::vector<std::uint16_t>& debug_log() const { return debug_log_; }

  /// Raw memory poke through the dirty-page tracker (tests and
  /// divergence-injection tooling only — a poked replica is desynced by
  /// construction, which is what the bisector tests want).
  void poke(std::uint16_t addr, std::uint8_t v) { write8(addr, v); }
  [[nodiscard]] std::uint8_t peek(std::uint16_t addr) const { return state_.mem()[addr]; }
  [[nodiscard]] std::uint16_t peek16(std::uint16_t addr) const { return read16(addr); }

 private:
  void write8(std::uint16_t addr, std::uint8_t v) {
    state_.mem()[addr] = v;
    state_.mark_dirty(addr);
    code_valid_[addr >> 14] &= ~(1ull << ((addr >> emu::kPageShift) & 63));
  }
  void write16(std::uint16_t addr, std::uint16_t v) {
    write8(addr, static_cast<std::uint8_t>(v & 0xFF));
    write8(static_cast<std::uint16_t>(addr + 1), static_cast<std::uint8_t>(v >> 8));
  }
  [[nodiscard]] std::uint16_t read16(std::uint16_t addr) const {
    const std::uint8_t* mem = state_.mem();
    return static_cast<std::uint16_t>(mem[addr] |
                                      (mem[static_cast<std::uint16_t>(addr + 1)] << 8));
  }

  /// Runs until HLT, a fault, or the cycle budget. Returns cycles used.
  /// The reference interpreter: fetches and decodes byte by byte.
  int run_frame(int cycle_budget);
  /// The same contract on the fast path (see machine.cpp).
  int run_frame_fast(int cycle_budget);

  /// Everything but memory, as PagedState hashes, digests and snapshots it.
  struct Header {
    std::uint16_t regs[kNumRegs];
    std::uint16_t ip;
    std::uint8_t flags;  ///< ZF | SF << 1 | CF << 2
    std::uint8_t fault;  ///< a Fault enumerator
    std::uint16_t tone;
    std::uint64_t frame;

    template <typename H, typename Sink>
    static void visit(H& h, Sink&& sink) {
      for (auto& r : h.regs) sink.u16(r);
      sink.u16(h.ip);
      sink.u8(h.flags);
      sink.u8(h.fault);
      sink.u16(h.tone);
      sink.u64(h.frame);
    }
    /// save_state only ever writes ZF/SF/CF and a Fault enumerator.
    [[nodiscard]] bool valid() const {
      return fault <= static_cast<std::uint8_t>(Fault::kBudgetExceeded) && flags <= 7;
    }
  };
  [[nodiscard]] Header header() const {
    Header h{{}, ip_, static_cast<std::uint8_t>((zf_ ? 1 : 0) | (sf_ ? 2 : 0) | (cf_ ? 4 : 0)),
             static_cast<std::uint8_t>(fault_), tone_, static_cast<std::uint64_t>(frame_)};
    std::memcpy(h.regs, regs_, sizeof h.regs);
    return h;
  }

  Program program_;
  MachineConfig cfg_;
  /// The flat 64 KiB, all of it mutable, with the digest cache and the
  /// snapshot framing (page 0 of page_digests() is address 0x0000); the
  /// content id is Program::checksum(), hashed once.
  emu::PagedState state_;
  std::uint16_t regs_[kNumRegs] = {};
  std::uint16_t ip_ = 0;
  bool zf_ = false, sf_ = false, cf_ = false;
  Fault fault_ = Fault::kNone;
  std::uint16_t tone_ = 0;
  FrameNo frame_ = 0;
  int last_frame_cycles_ = 0;
  std::vector<std::uint16_t> debug_log_;

  /// Decoded image, shared by every machine running this program.
  std::shared_ptr<const PredecodedProgram> predecode_;
  /// Bit p set: page p still holds its image bytes, so predecode_'s
  /// entries for it are current. Cleared by write8; recomputed by
  /// load_state for the pages the restore wrote.
  PredecodedProgram::PageBits code_valid_{};
};

}  // namespace rtct::a86
