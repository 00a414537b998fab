// FNV-1a hashing used to fingerprint emulator state for convergence checks.
// The sync layer proves logical consistency (both replicas produced the same
// output-state sequence) by comparing these 64-bit digests per frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace rtct {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Incremental FNV-1a-64. Cheap, deterministic, and dependency-free — we
/// are fingerprinting for *equality across replicas*, not for adversaries.
class Fnv1a64 {
 public:
  void update(std::span<const std::uint8_t> data);
  void update_u8(std::uint8_t b) { h_ = (h_ ^ b) * kFnvPrime; }
  void update_u16(std::uint16_t v) {
    update_u8(static_cast<std::uint8_t>(v & 0xFF));
    update_u8(static_cast<std::uint8_t>(v >> 8));
  }
  void update_u32(std::uint32_t v) {
    update_u16(static_cast<std::uint16_t>(v & 0xFFFF));
    update_u16(static_cast<std::uint16_t>(v >> 16));
  }
  void update_u64(std::uint64_t v) {
    update_u32(static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
    update_u32(static_cast<std::uint32_t>(v >> 32));
  }
  [[nodiscard]] std::uint64_t digest() const { return h_; }

  // Byte-sink aliases so a Fnv1a64 satisfies the same sink shape as
  // ByteWriter (used by visit_state-style serialization hooks).
  void u8(std::uint8_t v) { update_u8(v); }
  void u16(std::uint16_t v) { update_u16(v); }
  void u32(std::uint32_t v) { update_u32(v); }
  void u64(std::uint64_t v) { update_u64(v); }

 private:
  std::uint64_t h_ = kFnvOffset;
};

/// One-shot convenience.
std::uint64_t fnv1a64(std::span<const std::uint8_t> data);

}  // namespace rtct
