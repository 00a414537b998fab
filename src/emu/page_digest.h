// PageDigestCache: the incremental state digest (version 3) of the paged
// cores (AC16, agent86). Each kPageSize-byte page has a term: a word-wise
// hash of its bytes keyed by its page index. The cache keeps the running
// sum of the terms and a dirty bitmap the core's stores set, so a digest
// rehashes only the dirty pages; the core's header is mixed in last. A
// restore dirties only the pages the snapshot actually changes.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/emu/isa.h"

namespace rtct::emu {

/// Full-rehash cross-check: while on, every digest also recomputes the
/// page sum from scratch; a disagreement counts one failure and the cache
/// adopts the recomputed terms. The chaos soak runs with it on and asserts
/// the counter stays zero.
void set_state_digest_cross_check(bool on);
[[nodiscard]] bool state_digest_cross_check();
[[nodiscard]] std::uint64_t state_digest_cross_check_failures();

namespace digest_v3 {
/// The term of one page: four lanes of multiply/rotate rounds over its
/// little-endian 8-byte words, seeded with the page index, then finalised.
[[nodiscard]] std::uint64_t page_term(const std::uint8_t* page, std::size_t index);
/// One round: folds the 64-bit word `w` into `acc`.
[[nodiscard]] constexpr std::uint64_t round(std::uint64_t acc, std::uint64_t w) {
  return std::rotl(acc + w * 0xC2B2AE3D27D4EB4Full, 31) * 0x9E3779B185EBCA87ull;
}
/// Header sink (the ByteWriter shape visit_header writes): one round per
/// field, starting from the page sum.
struct HeaderMix {
  std::uint64_t h;
  void u8(std::uint8_t v) { h = round(h, v); }
  void u16(std::uint16_t v) { h = round(h, v); }
  void u64(std::uint64_t v) { h = round(h, v); }
};
[[nodiscard]] std::uint64_t finalise(std::uint64_t h);
}  // namespace digest_v3

class PageDigestCache {
 public:
  static constexpr std::size_t kMaxPages = 256;  ///< a full 64 KiB space
  /// One bit per page, page p at word p / 64, bit p % 64.
  using PageBits = std::array<std::uint64_t, kMaxPages / 64>;

  /// `num_pages`: a multiple of 64, at most kMaxPages; all start dirty.
  explicit PageDigestCache(std::size_t num_pages) : num_pages_(num_pages) { mark_all_dirty(); }

  /// Marks the page holding byte `offset` of the covered region dirty.
  void mark_dirty(std::size_t offset) {
    const std::size_t page = offset >> kPageShift;
    dirty_[page >> 6] |= 1ull << (page & 63);
  }
  void mark_all_dirty() { dirty_.fill(~0ull); }
  /// For store paths that inline mark_dirty (AC16's fast interpreter).
  [[nodiscard]] std::uint64_t* dirty_bitmap() { return dirty_.data(); }

  /// Rehashes the dirty pages of `mem` (the covered region), moving each
  /// one's term in the running sum, and returns every page's term in page
  /// order.
  std::span<const std::uint64_t> refresh(const std::uint8_t* mem);

  /// The version-3 digest: the refreshed page sum with the header that
  /// `visit_header(sink)` writes mixed in last.
  template <typename VisitHeader>
  std::uint64_t digest(const std::uint8_t* mem, VisitHeader&& visit_header) {
    digest_v3::HeaderMix mix{page_sum(mem)};
    visit_header(mix);
    return digest_v3::finalise(mix.h);
  }

  /// Copies `snapshot` (the whole covered region) over `mem`, writing and
  /// dirtying only the pages whose bytes differ; dirty pages stay dirty.
  /// Returns the pages it wrote (agent86 revalidates its predecode there).
  PageBits restore(std::uint8_t* mem, std::span<const std::uint8_t> snapshot);

 private:
  /// refresh(), then the cross-check when it is on; returns the sum.
  std::uint64_t page_sum(const std::uint8_t* mem);

  std::size_t num_pages_;
  std::uint64_t sum_ = 0;  ///< sum of term_ mod 2^64
  std::array<std::uint64_t, kMaxPages> term_{};
  PageBits dirty_{};
};

}  // namespace rtct::emu
