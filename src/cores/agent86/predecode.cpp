#include "src/cores/agent86/predecode.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <span>

namespace rtct::a86 {

namespace {

/// The image bytes Agent86Machine::reset loads: an image never wraps.
std::span<const std::uint8_t> loaded_image(const Program& program) {
  return {program.image.data(), std::min(program.image.size(), kMemSize - program.org)};
}

}  // namespace

PredecodedProgram::PredecodedProgram(const Program& program) : org_(program.org) {
  const auto image = loaded_image(program);
  image_size_ = image.size();
  if (image.empty()) return;
  first_page_ = org_ >> emu::kPageShift;
  num_pages_ = ((org_ + image.size() - 1) >> emu::kPageShift) + 1 - first_page_;
  bytes_.assign(num_pages_ * emu::kPageSize, 0);
  const std::size_t base = first_page_ * emu::kPageSize;
  std::copy(image.begin(), image.end(), bytes_.begin() + (org_ - base));

  // Entries below the first image page stay default: never current.
  entries_.resize(base + bytes_.size());
  // Reset-time memory up to the last image page, plus the 3 bytes an
  // instruction can reach past it (they are zero after reset, unless the
  // image ends at 0xFFFF and the fetch wraps to address 0).
  std::vector<std::uint8_t> mem(entries_.size() + 3, 0);
  std::copy(bytes_.begin(), bytes_.end(), mem.begin() + static_cast<std::ptrdiff_t>(base));
  for (std::size_t addr = base; addr < entries_.size(); ++addr) {
    Decoded d = decode_at(mem.data(), static_cast<std::uint16_t>(addr));
    // Its tail lives in the next page, whose bit this entry cannot see.
    if ((addr % emu::kPageSize) + d.len > emu::kPageSize) d.op = kXStraddle;
    entries_[addr] = d;
  }
  // Fill-loop heads: the loop's bytes must share the head's page, whose
  // bit then vouches for all of them.
  for (std::size_t head = base; head < entries_.size(); ++head) {
    Decoded& store = entries_[head];
    if (store.op != kStB && store.op != kStW) continue;
    const std::size_t page = head >> emu::kPageShift;
    const std::size_t step_at = head + 3;
    if (step_at >> emu::kPageShift != page) continue;
    const Decoded& step = entries_[step_at];
    const std::size_t loop_at = step_at + step.len;
    if ((loop_at + 2) >> emu::kPageShift != page) continue;
    const Decoded& loop = entries_[loop_at];
    const bool steps_ptr = (step.op == kAddRI || step.op == kInc) && step.a == store.a;
    if (steps_ptr && loop.op == kLoop && loop.imm == head && store.a != store.b &&
        store.a != CX && store.b != CX) {
      store.op = store.op == kStB ? kXFillB : kXFillW;
    }
  }
  for (std::size_t p = first_page_; p < first_page_ + num_pages_; ++p) {
    image_pages_[p >> 6] |= 1ull << (p & 63);
  }
}

std::shared_ptr<const PredecodedProgram> PredecodedProgram::shared(const Program& program) {
  // Weak entries share a table among the machines alive; the last few
  // tables are also held strongly, so sessions that come and go (one
  // bundled game, many matches) never rebuild one, while a test that
  // builds thousands of throwaway programs does not keep them all.
  constexpr std::size_t kKeepAlive = 4;
  static std::mutex mu;
  static std::vector<std::weak_ptr<const PredecodedProgram>> live;
  static std::vector<std::shared_ptr<const PredecodedProgram>> recent;
  const auto image = loaded_image(program);
  const std::lock_guard<std::mutex> lock(mu);
  std::erase_if(live, [](const auto& w) { return w.expired(); });
  for (const auto& w : live) {
    auto table = w.lock();
    if (table && table->loads(program.org, image)) return table;
  }
  auto table = std::make_shared<const PredecodedProgram>(program);
  live.push_back(table);
  if (recent.size() == kKeepAlive) recent.erase(recent.begin());
  recent.push_back(table);
  return table;
}

bool PredecodedProgram::loads(std::uint16_t org, std::span<const std::uint8_t> image) const {
  if (org != org_ || image.size() != image_size_) return false;
  return image.empty() ||
         std::equal(image.begin(), image.end(),
                    bytes_.begin() + (org_ - first_page_ * emu::kPageSize));
}

void PredecodedProgram::revalidate(const PageBits& written, const std::uint8_t* mem,
                                   PageBits& valid) const {
  for (std::size_t p = first_page_; p < first_page_ + num_pages_; ++p) {
    const std::uint64_t bit = 1ull << (p & 63);
    if ((written[p >> 6] & bit) == 0) continue;
    const std::uint8_t* image = bytes_.data() + (p - first_page_) * emu::kPageSize;
    if (std::memcmp(mem + p * emu::kPageSize, image, emu::kPageSize) == 0) {
      valid[p >> 6] |= bit;
    } else {
      valid[p >> 6] &= ~bit;
    }
  }
}

}  // namespace rtct::a86
