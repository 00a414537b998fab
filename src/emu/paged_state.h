// PagedState: the synchronized state of a paged core (AC16, agent86),
// written once: the 64 KiB address space, the digest cache over its
// mutable region [base, 64 KiB), the content id and the snapshot framing
//   u8 version (1) | u64 content id | header | the region's bytes.
// A core's header (every synchronized field but memory) is a struct of
// u8/u16/u64 fields with
//   template <typename H, typename Sink> static void visit(H& h, Sink&& sink),
// which lists the fields once, in snapshot order, as sink.u8/u16/u64 calls
// (value sinks read a const header; load()'s sink fills one in), and
//   bool valid() const,
// which refuses values save never writes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/emu/page_digest.h"

namespace rtct::emu {

class PagedState {
 public:
  /// `base`: the mutable region's first byte, a multiple of 16 KiB. The
  /// address space is allocated unfilled: clear() zeroes it.
  PagedState(std::uint64_t content_id, std::size_t base);

  [[nodiscard]] std::uint8_t* mem() { return mem_.get(); }
  [[nodiscard]] const std::uint8_t* mem() const { return mem_.get(); }
  [[nodiscard]] std::uint64_t content_id() const { return content_id_; }

  /// Zeroes the address space and dirties every page.
  void clear();
  /// Marks the page holding address `addr` (at or above base) dirty.
  void mark_dirty(std::size_t addr) { pages_.mark_dirty(addr - base_); }
  /// For store paths that inline mark_dirty (the fast interpreters).
  [[nodiscard]] std::uint64_t* dirty_bitmap() { return pages_.dirty_bitmap(); }

  /// state_digest(version): FNV-1a of header and region for version 1,
  /// else the incremental page digest (version 3).
  template <typename Header>
  [[nodiscard]] std::uint64_t digest(const Header& h, int version) const {
    if (version <= 1) {
      Fnv1a64 f;
      Header::visit(h, f);
      f.update(region());
      return f.digest();
    }
    return pages_.digest(mem_.get() + base_, [&h](auto& mix) { Header::visit(h, mix); });
  }

  /// Every page's version-3 term, in page order.
  [[nodiscard]] std::vector<std::uint64_t> page_digests() const;

  /// Writes the snapshot into `out`, reusing its capacity.
  template <typename Header>
  void save_into(const Header& h, std::vector<std::uint8_t>& out) const {
    if (out.capacity() < 64 + region().size()) out.reserve(64 + region().size());
    ByteWriter w(std::move(out));
    w.u8(kVersion);
    w.u64(content_id_);
    Header::visit(h, w);
    w.bytes(region());
    out = w.take();
  }

  /// Parses a snapshot into `h`; if its version, content id, length and
  /// h.valid() hold, restores the region and returns the pages it wrote.
  /// On failure nothing but `h` is touched.
  template <typename Header>
  [[nodiscard]] std::optional<PageDigestCache::PageBits> load(
      std::span<const std::uint8_t> data, Header& h) {
    ByteReader r(data);
    if (r.u8() != kVersion || r.u64() != content_id_) return std::nullopt;
    Header::visit(h, Reading{r});
    const auto bytes = r.bytes(region().size());
    if (!r.ok() || !r.at_end() || !h.valid()) return std::nullopt;
    return pages_.restore(mem_.get() + base_, bytes);
  }

 private:
  static constexpr std::size_t kMemSize = 0x10000;
  static constexpr std::uint8_t kVersion = 1;

  /// The sink load() hands the header visitor.
  struct Reading {
    ByteReader& r;
    void u8(std::uint8_t& v) { v = r.u8(); }
    void u16(std::uint16_t& v) { v = r.u16(); }
    void u64(std::uint64_t& v) { v = r.u64(); }
  };

  [[nodiscard]] std::span<const std::uint8_t> region() const {
    return {mem_.get() + base_, kMemSize - base_};
  }

  std::unique_ptr<std::uint8_t[]> mem_;
  std::size_t base_;
  std::uint64_t content_id_;
  /// Refreshed lazily inside the (const) digest calls, hence mutable.
  mutable PageDigestCache pages_;
};

}  // namespace rtct::emu
