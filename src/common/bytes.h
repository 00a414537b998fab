// Bounds-checked little-endian byte serialization, used for wire messages
// and emulator save-states. Header-only: the fixed-width calls sit on the
// per-datagram and per-snapshot paths and inline into their callers.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rtct {

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
  /// Adopts an existing buffer: clears it but keeps its capacity, so a
  /// caller that round-trips the vector through take() pays the allocation
  /// once instead of once per call (per-frame snapshot/wire encoding).
  explicit ByteWriter(std::vector<std::uint8_t>&& reuse) : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i8(std::int8_t v) { u8(static_cast<std::uint8_t>(v)); }
  void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void bytes(std::span<const std::uint8_t> s) { buf_.insert(buf_.end(), s.begin(), s.end()); }
  /// Length-prefixed (u32) string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void put(T v) {
    std::uint8_t b[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    buf_.insert(buf_.end(), b, b + sizeof(T));
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder. Never throws: once any read runs
/// past the end, `ok()` turns false and every subsequent read returns zero.
/// A read that would straddle the end consumes nothing and returns zero.
/// Callers validate a whole message with a single `ok()` check at the end —
/// the right shape for parsing datagrams from an untrusted network.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
  std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// Reads `n` raw bytes; returns an empty span (and poisons the reader) if
  /// fewer remain.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::string str() {
    const std::uint32_t n = u32();
    auto s = bytes(n);
    return std::string(s.begin(), s.end());
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }

 private:
  template <typename T>
  T get() {
    if (!ok_ || remaining() < sizeof(T)) {
      ok_ = false;
      return 0;
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(T{data_[pos_ + i]} << (8 * i));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace rtct
