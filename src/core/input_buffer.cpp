#include "src/core/input_buffer.h"

namespace rtct::core {

InputBuffer::Entry* InputBuffer::entry_at(FrameNo frame, bool create) {
  if (frame < base_ || frame - base_ > kMaxFrameWindow) return nullptr;
  const auto idx = static_cast<std::size_t>(frame - base_);
  if (idx >= count_) {
    if (!create) return nullptr;
    if (idx >= ring_.size()) {
      std::size_t cap = ring_.empty() ? 64 : ring_.size();
      while (cap <= idx) cap *= 2;
      std::vector<Entry> next(cap);
      for (std::size_t i = 0; i < count_; ++i) next[i] = ring_[slot(i)];
      ring_ = std::move(next);
      head_ = 0;
    }
    for (; count_ <= idx; ++count_) ring_[slot(count_)] = Entry{};
  }
  return &ring_[slot(idx)];
}

const InputBuffer::Entry* InputBuffer::entry_at(FrameNo frame) const {
  if (frame < base_) return nullptr;
  const auto idx = static_cast<std::size_t>(frame - base_);
  return idx < count_ ? &ring_[slot(idx)] : nullptr;
}

bool InputBuffer::put(SiteId site, FrameNo frame, InputWord partial) {
  if (site < 0 || site >= num_sites_) return false;
  Entry* e = entry_at(frame, /*create=*/true);
  if (e == nullptr || e->filled[site]) return false;  // stale or duplicate
  e->filled[site] = true;
  e->partial[site] = site_bits_n(partial, site, num_sites_);
  return true;
}

bool InputBuffer::has(SiteId site, FrameNo frame) const {
  if (site < 0 || site >= num_sites_) return false;
  const Entry* e = entry_at(frame);
  return e != nullptr && e->filled[site];
}

InputWord InputBuffer::partial(SiteId site, FrameNo frame) const {
  if (site < 0 || site >= num_sites_) return 0;
  const Entry* e = entry_at(frame);
  return (e != nullptr && e->filled[site]) ? e->partial[site] : 0;
}

std::optional<InputWord> InputBuffer::merged(FrameNo frame) const {
  const Entry* e = entry_at(frame);
  if (e == nullptr) return std::nullopt;
  InputWord out = 0;
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (!e->filled[s]) return std::nullopt;
    out = merge_site_bits_n(out, e->partial[s], s, num_sites_);
  }
  return out;
}

void InputBuffer::trim_below(FrameNo frame) {
  while (base_ < frame && count_ > 0) {
    head_ = slot(1);
    --count_;
    ++base_;
  }
  if (count_ == 0 && base_ < frame) base_ = frame;
}

}  // namespace rtct::core
