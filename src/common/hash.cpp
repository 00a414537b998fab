#include "src/common/hash.h"

#include <bit>
#include <cstring>

namespace rtct {

void Fnv1a64::update(std::span<const std::uint8_t> data) {
  std::uint64_t h = h_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // FNV-1a is byte-serial by definition — each fold depends on the previous
  // one — so the folds cannot be widened without changing the digest. The
  // win here is one 8-byte load per chunk plus unrolled loop control, which
  // roughly halves the per-byte cost on the 32 KiB full-state hash. The
  // shift extraction below reads bytes in memory order only on a
  // little-endian host, so big-endian targets keep the plain loop.
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint64_t w;
      std::memcpy(&w, p, 8);
      h = (h ^ (w & 0xFF)) * kFnvPrime;
      h = (h ^ ((w >> 8) & 0xFF)) * kFnvPrime;
      h = (h ^ ((w >> 16) & 0xFF)) * kFnvPrime;
      h = (h ^ ((w >> 24) & 0xFF)) * kFnvPrime;
      h = (h ^ ((w >> 32) & 0xFF)) * kFnvPrime;
      h = (h ^ ((w >> 40) & 0xFF)) * kFnvPrime;
      h = (h ^ ((w >> 48) & 0xFF)) * kFnvPrime;
      h = (h ^ (w >> 56)) * kFnvPrime;
      p += 8;
      n -= 8;
    }
  }
  while (n--) h = (h ^ *p++) * kFnvPrime;
  h_ = h;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  Fnv1a64 h;
  h.update(data);
  return h.digest();
}

}  // namespace rtct
