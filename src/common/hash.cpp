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

void fnv1a64_blocks(std::span<const std::uint8_t* const> blocks, std::size_t block_len,
                    std::span<std::uint64_t> out) {
  std::size_t b = 0;
  // Four named scalar chains, so the multiplies of different chains
  // overlap. An array of chains gets auto-vectorized into shift/add
  // multiplies no faster than one chain, and byte loads beat extracting
  // bytes from 8-byte words here.
  for (; b + 4 <= blocks.size(); b += 4) {
    const std::uint8_t *p0 = blocks[b], *p1 = blocks[b + 1], *p2 = blocks[b + 2],
                       *p3 = blocks[b + 3];
    std::uint64_t h0 = kFnvOffset, h1 = kFnvOffset, h2 = kFnvOffset, h3 = kFnvOffset;
    for (std::size_t i = 0; i < block_len; ++i) {
      h0 = (h0 ^ p0[i]) * kFnvPrime;
      h1 = (h1 ^ p1[i]) * kFnvPrime;
      h2 = (h2 ^ p2[i]) * kFnvPrime;
      h3 = (h3 ^ p3[i]) * kFnvPrime;
    }
    out[b] = h0;
    out[b + 1] = h1;
    out[b + 2] = h2;
    out[b + 3] = h3;
  }
  for (; b < blocks.size(); ++b) out[b] = fnv1a64({blocks[b], block_len});
}

}  // namespace rtct
