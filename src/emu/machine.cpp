#include "src/emu/machine.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/hash.h"

namespace rtct::emu {

namespace {
constexpr std::size_t kMemSize = 0x10000;
constexpr std::size_t kMutableSize = kMemSize - kRamBase;  // 32 KiB RAM+FB
constexpr std::size_t kDebugLogCap = 4096;
}  // namespace

ArcadeMachine::ArcadeMachine(Rom rom, MachineConfig cfg)
    : rom_(std::move(rom)),
      content_id_(rom_.checksum()),
      predecode_(rom_.image),
      cfg_(cfg),
      mem_(std::make_unique_for_overwrite<std::uint8_t[]>(kMemSize)) {
  reset();
}

void ArcadeMachine::reset() {
  std::fill_n(mem_.get(), kMemSize, 0);
  std::copy(rom_.image.begin(), rom_.image.end(), mem_.get());
  cpu_.reset(rom_.entry, kInitialSp);
  input_latch_ = 0;
  tone_ = 0;
  frame_ = 0;
  last_frame_cycles_ = 0;
  debug_log_.clear();
  pages_.mark_all_dirty();
}

void ArcadeMachine::step_frame(InputWord input) {
  if (faulted()) return;  // a faulted machine stays stopped
  input_latch_ = input;
  last_frame_cycles_ =
      cfg_.reference_interpreter
          ? cpu_.run_frame(*this, cfg_.cycles_per_frame)
          : cpu_.run_frame_fast(mem_.get(), pages_.dirty_bitmap(), *this, predecode_,
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

std::uint64_t ArcadeMachine::state_hash() const {
  Fnv1a64 h;
  visit_header(h);
  h.update(std::span<const std::uint8_t>(mem_.get() + kRamBase, kMutableSize));
  return h.digest();
}

std::uint64_t ArcadeMachine::state_digest(int version) const {
  if (version <= 1) return state_hash();
  return pages_.digest(mem_.get() + kRamBase, [this](auto& h) { visit_header(h); });
}

std::vector<std::uint64_t> ArcadeMachine::page_digests() const {
  const auto digests = pages_.refresh(mem_.get() + kRamBase);
  return {digests.begin(), digests.end()};
}

std::vector<std::uint8_t> ArcadeMachine::save_state() const {
  std::vector<std::uint8_t> out;
  save_state_into(out);
  return out;
}

void ArcadeMachine::save_state_into(std::vector<std::uint8_t>& out) const {
  if (out.capacity() < 64 + kMutableSize) out.reserve(64 + kMutableSize);
  ByteWriter w(std::move(out));
  w.u8(kStateVersion);
  w.u64(content_id_);
  visit_header(w);
  w.bytes(std::span<const std::uint8_t>(mem_.get() + kRamBase, kMutableSize));
  out = w.take();
}

bool ArcadeMachine::load_state(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  if (r.u8() != kStateVersion) return false;
  if (r.u64() != content_id_) return false;  // snapshot from another game

  Cpu::RawState cs{};
  for (auto& reg : cs.regs) reg = r.u16();
  cs.pc = r.u16();
  cs.flags = r.u8();
  cs.fault = r.u8();
  const std::uint16_t latch = r.u16();
  const std::uint16_t tone = r.u16();
  const auto frame = static_cast<FrameNo>(r.u64());
  const auto ram = r.bytes(kMutableSize);
  if (!r.ok() || !r.at_end()) return false;
  // save_state only ever writes Z/N/C and a Fault enumerator.
  if (cs.fault > static_cast<std::uint8_t>(Fault::kBrk) || cs.flags > 7) return false;

  cpu_.restore(cs);
  input_latch_ = latch;
  tone_ = tone;
  frame_ = frame;
  pages_.restore(mem_.get() + kRamBase, ram);
  // ROM region is already in place; debug log is diagnostic state only.
  debug_log_.clear();
  return true;
}

}  // namespace rtct::emu
