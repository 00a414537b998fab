// PageDigestCache: the incremental (version-2) state digest of the paged
// cores (AC16, agent86): one FNV-1a digest per kPageSize-byte page plus a
// dirty bitmap the core's stores set. A digest rehashes only dirty pages,
// and a restore dirties only the pages the snapshot actually changes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/hash.h"
#include "src/emu/isa.h"

namespace rtct::emu {

/// Full-rehash cross-check: while on, every fold_into also rehashes every
/// page from scratch and counts disagreements with the cache. The chaos
/// soak runs with it on and asserts the counter stays zero.
void set_state_digest_cross_check(bool on);
[[nodiscard]] bool state_digest_cross_check();
[[nodiscard]] std::uint64_t state_digest_cross_check_failures();

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

  /// Rehashes the dirty pages of `mem` (the covered region), four at a
  /// time, and returns every page's digest in page order.
  std::span<const std::uint64_t> refresh(const std::uint8_t* mem);
  /// Refreshes, then folds each page digest into `h` as a u64.
  void fold_into(Fnv1a64& h, const std::uint8_t* mem);
  /// Copies `snapshot` (the whole covered region) over `mem`, writing and
  /// dirtying only the pages whose bytes differ; dirty pages stay dirty.
  /// Returns the pages it wrote (agent86 revalidates its predecode there).
  PageBits restore(std::uint8_t* mem, std::span<const std::uint8_t> snapshot);

 private:
  std::size_t num_pages_;
  std::array<std::uint64_t, kMaxPages> digest_{};
  PageBits dirty_{};
};

}  // namespace rtct::emu
