// IBuf — Algorithm 2's input buffer.
//
// Maps frame numbers to per-site partial inputs. The paper assumes "a
// buffer of unlimited size ... for simplicity in presentation"; this
// implementation grows on demand but reclaims delivered entries, so memory
// stays proportional to the in-flight window (local lag + network skew).
// The entries live in a power-of-two ring that only ever grows, so a
// steady session stores and trims inputs without allocating.
// Duplicate arrivals (from retransmission) are absorbed idempotently —
// "only one copy of them will be kept in the buffer" (§3.1).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/types.h"

namespace rtct::core {

class InputBuffer {
 public:
  /// Two-site by default, like the paper; pass 4 or 8 for the mesh
  /// extension (num_sites must divide 16 — each site owns an equal,
  /// disjoint span of the input word).
  explicit InputBuffer(int num_sites = 2)
      : num_sites_(num_sites < 1 ? 1 : (num_sites > kMaxSites ? kMaxSites : num_sites)) {}

  static constexpr int kMaxSites = 8;

  /// Widest window (frames above `base()`) a put may open. Legitimate
  /// traffic never runs more than local-lag + retransmission-window ahead
  /// of the trim point (tens of frames); a forged first_frame that passes
  /// the wire-level range check must not force an unbounded ring
  /// allocation here. 2^16 frames ≈ 18 minutes at 60 FPS — far beyond any
  /// real skew, cheap to reject.
  static constexpr FrameNo kMaxFrameWindow = 1 << 16;

  /// Records site `site`'s partial input for `frame`. Returns true if the
  /// slot was empty (false = duplicate, ignored). Frames below the trim
  /// point are stale retransmissions and count as duplicates; frames more
  /// than kMaxFrameWindow above it are hostile or corrupt and are ignored
  /// the same way.
  bool put(SiteId site, FrameNo frame, InputWord partial);

  [[nodiscard]] bool has(SiteId site, FrameNo frame) const;

  /// Site's stored partial input (0 if absent — matching the paper's
  /// all-zero initialization, which is also what the first BufFrame
  /// "empty input" frames deliver).
  [[nodiscard]] InputWord partial(SiteId site, FrameNo frame) const;

  /// The merged input word for `frame` if every site's partial input has
  /// arrived; nullopt otherwise.
  [[nodiscard]] std::optional<InputWord> merged(FrameNo frame) const;

  /// Frames below `frame` have been delivered to the game and can be
  /// reclaimed.
  void trim_below(FrameNo frame);

  [[nodiscard]] FrameNo base() const { return base_; }
  [[nodiscard]] std::size_t entries_in_memory() const { return count_; }

 private:
  struct Entry {
    InputWord partial[kMaxSites] = {};
    bool filled[kMaxSites] = {};
  };

  Entry* entry_at(FrameNo frame, bool create);
  [[nodiscard]] const Entry* entry_at(FrameNo frame) const;
  [[nodiscard]] std::size_t slot(std::size_t idx) const { return (head_ + idx) & (ring_.size() - 1); }

  int num_sites_;
  FrameNo base_ = 0;       ///< frame number of the entry at head_
  std::vector<Entry> ring_;  ///< capacity a power of two (or empty)
  std::size_t head_ = 0;
  std::size_t count_ = 0;  ///< entries from base_ on
};

}  // namespace rtct::core
