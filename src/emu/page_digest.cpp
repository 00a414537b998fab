#include "src/emu/page_digest.h"

#include <atomic>
#include <cstring>
#include <utility>

namespace rtct::emu {

namespace {
std::atomic<bool> g_cross_check{false};
std::atomic<std::uint64_t> g_cross_check_failures{0};

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
  return w;
}
}  // namespace

void set_state_digest_cross_check(bool on) {
  g_cross_check.store(on, std::memory_order_relaxed);
  if (on) g_cross_check_failures.store(0, std::memory_order_relaxed);
}

bool state_digest_cross_check() { return g_cross_check.load(std::memory_order_relaxed); }

std::uint64_t state_digest_cross_check_failures() {
  return g_cross_check_failures.load(std::memory_order_relaxed);
}

namespace digest_v3 {
std::uint64_t finalise(std::uint64_t h) {
  h = (h ^ (h >> 33)) * 0xC2B2AE3D27D4EB4Full;
  h = (h ^ (h >> 29)) * 0x165667B19E3779F9ull;
  return h ^ (h >> 32);
}

std::uint64_t page_term(const std::uint8_t* page, std::size_t index) {
  // Four named lanes: an array of them is kept in memory by GCC.
  std::uint64_t a = index + 1, b = index + 2, c = index + 3, d = index + 4;
  for (const std::uint8_t* p = page; p != page + kPageSize; p += 32) {
    a = round(a, load_le64(p));
    b = round(b, load_le64(p + 8));
    c = round(c, load_le64(p + 16));
    d = round(d, load_le64(p + 24));
  }
  return finalise(std::rotl(a, 1) + std::rotl(b, 7) + std::rotl(c, 12) + std::rotl(d, 18));
}
}  // namespace digest_v3

std::span<const std::uint64_t> PageDigestCache::refresh(const std::uint8_t* mem) {
  for (std::size_t wi = 0; wi < num_pages_ / 64; ++wi) {
    for (std::uint64_t bits = std::exchange(dirty_[wi], 0); bits != 0; bits &= bits - 1) {
      const std::size_t page = wi * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      const std::uint64_t term = digest_v3::page_term(mem + page * kPageSize, page);
      sum_ += term - term_[page];
      term_[page] = term;
    }
  }
  return {term_.data(), num_pages_};
}

std::uint64_t PageDigestCache::page_sum(const std::uint8_t* mem) {
  refresh(mem);
  if (!state_digest_cross_check()) return sum_;
  std::array<std::uint64_t, kMaxPages> fresh{};
  std::uint64_t sum = 0;
  for (std::size_t page = 0; page < num_pages_; ++page) {
    fresh[page] = digest_v3::page_term(mem + page * kPageSize, page);
    sum += fresh[page];
  }
  if (sum != sum_) {
    g_cross_check_failures.fetch_add(1, std::memory_order_relaxed);
    term_ = fresh;
    sum_ = sum;
  }
  return sum_;
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
