#include "src/emu/machine.h"

#include <algorithm>

namespace rtct::emu {

namespace {
constexpr std::size_t kDebugLogCap = 4096;
}  // namespace

ArcadeMachine::ArcadeMachine(Rom rom, MachineConfig cfg)
    : rom_(std::move(rom)),
      predecode_(rom_.image),
      cfg_(cfg),
      state_(rom_.checksum(), kRamBase) {
  reset();
}

void ArcadeMachine::reset() {
  state_.clear();
  std::copy(rom_.image.begin(), rom_.image.end(), state_.mem());
  cpu_.reset(rom_.entry, kInitialSp);
  input_latch_ = 0;
  tone_ = 0;
  frame_ = 0;
  last_frame_cycles_ = 0;
  debug_log_.clear();
}

void ArcadeMachine::step_frame(InputWord input) {
  if (faulted()) return;  // a faulted machine stays stopped
  input_latch_ = input;
  last_frame_cycles_ =
      cfg_.reference_interpreter
          ? cpu_.run_frame(*this, cfg_.cycles_per_frame)
          : cpu_.run_frame_fast(state_.mem(), state_.dirty_bitmap(), *this, predecode_,
                                cfg_.cycles_per_frame);
  ++frame_;
}

std::uint16_t ArcadeMachine::in_port(std::uint8_t port) {
  switch (static_cast<Port>(port)) {
    case Port::kPlayer0:
      return player_byte(input_latch_, 0);
    case Port::kPlayer1:
      return player_byte(input_latch_, 1);
    case Port::kFrameLo:
      return static_cast<std::uint16_t>(frame_ & 0xFFFF);
    case Port::kFrameHi:
      return static_cast<std::uint16_t>((frame_ >> 16) & 0xFFFF);
    default:
      return 0;  // undefined ports read as zero (deterministically)
  }
}

void ArcadeMachine::out_port(std::uint8_t port, std::uint16_t v) {
  switch (static_cast<Port>(port)) {
    case Port::kTone:
      tone_ = v;
      break;
    case Port::kDebug:
      if (debug_log_.size() < kDebugLogCap) debug_log_.push_back(v);
      break;
    default:
      break;  // writes to undefined ports are ignored
  }
}

bool ArcadeMachine::load_state(std::span<const std::uint8_t> data) {
  Header h{};
  if (!state_.load(data, h)) return false;
  cpu_.restore(h.cpu);
  input_latch_ = h.input_latch;
  tone_ = h.tone;
  frame_ = static_cast<FrameNo>(h.frame);
  // ROM region is already in place; debug log is diagnostic state only.
  debug_log_.clear();
  return true;
}

}  // namespace rtct::emu
