#include "src/emu/page_digest.h"

#include <atomic>
#include <bit>
#include <cstring>
#include <utility>

namespace rtct::emu {

namespace {
std::atomic<bool> g_cross_check{false};
std::atomic<std::uint64_t> g_cross_check_failures{0};
}  // namespace

void set_state_digest_cross_check(bool on) {
  g_cross_check.store(on, std::memory_order_relaxed);
  if (on) g_cross_check_failures.store(0, std::memory_order_relaxed);
}

bool state_digest_cross_check() { return g_cross_check.load(std::memory_order_relaxed); }

std::uint64_t state_digest_cross_check_failures() {
  return g_cross_check_failures.load(std::memory_order_relaxed);
}

std::span<const std::uint64_t> PageDigestCache::refresh(const std::uint8_t* mem) {
  std::array<std::size_t, kMaxPages> pages{};
  std::array<const std::uint8_t*, kMaxPages> blocks{};
  std::array<std::uint64_t, kMaxPages> fresh{};
  std::size_t n = 0;
  for (std::size_t wi = 0; wi < num_pages_ / 64; ++wi) {
    for (std::uint64_t bits = std::exchange(dirty_[wi], 0); bits != 0; bits &= bits - 1, ++n) {
      pages[n] = wi * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      blocks[n] = mem + pages[n] * kPageSize;
    }
  }
  fnv1a64_blocks({blocks.data(), n}, kPageSize, fresh);
  for (std::size_t i = 0; i < n; ++i) digest_[pages[i]] = fresh[i];
  return {digest_.data(), num_pages_};
}

void PageDigestCache::fold_into(Fnv1a64& h, const std::uint8_t* mem) {
  for (const std::uint64_t d : refresh(mem)) h.update_u64(d);
  if (!state_digest_cross_check()) return;
  // The oracle is the plain serial hash, independent of fnv1a64_blocks.
  for (std::size_t page = 0; page < num_pages_; ++page) {
    if (fnv1a64({mem + page * kPageSize, kPageSize}) != digest_[page]) {
      g_cross_check_failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

PageDigestCache::PageBits PageDigestCache::restore(std::uint8_t* mem,
                                                   std::span<const std::uint8_t> snapshot) {
  PageBits written{};
  for (std::size_t off = 0; off < snapshot.size(); off += kPageSize) {
    if (std::memcmp(mem + off, snapshot.data() + off, kPageSize) == 0) continue;
    std::memcpy(mem + off, snapshot.data() + off, kPageSize);
    mark_dirty(off);
    const std::size_t page = off >> kPageShift;
    written[page >> 6] |= 1ull << (page & 63);
  }
  return written;
}

}  // namespace rtct::emu
