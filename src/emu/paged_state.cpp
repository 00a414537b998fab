#include "src/emu/paged_state.h"

#include <algorithm>

namespace rtct::emu {

PagedState::PagedState(std::uint64_t content_id, std::size_t base)
    : mem_(std::make_unique_for_overwrite<std::uint8_t[]>(kMemSize)),
      base_(base),
      content_id_(content_id),
      pages_((kMemSize - base) / kPageSize) {}

void PagedState::clear() {
  std::fill_n(mem_.get(), kMemSize, 0);
  pages_.mark_all_dirty();
}

std::vector<std::uint64_t> PagedState::page_digests() const {
  const auto terms = pages_.refresh(mem_.get() + base_);
  return {terms.begin(), terms.end()};
}

}  // namespace rtct::emu
