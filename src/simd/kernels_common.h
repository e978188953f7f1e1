// kernels_common.h — scalar helpers shared by every SIMD tier.
//
// The vector kernels (kernels_vec.inc) process whole vector chunks and then
// fall back to these helpers for the sub-vector remainder. The helpers
// reproduce the exact conventions of the scalar ILP stages (ilp/stages.h):
// little-endian 16-bit word order for the Internet sum, zero-padded partial
// words, the Byteswap32Stage partial-tail rule, and ChaCha20 keystream
// consumed in 64-byte block order — so a vector tier that uses them for its
// tail is byte-identical to the scalar tier by construction.
#pragma once

#include <algorithm>
#include <array>
#include <cstring>

#include "crypto/chacha20.h"
#include "simd/dispatch.h"
#include "util/bytes.h"

namespace ngp::simd::detail {

/// Exact (carry-free, 64-bit) sum of the four LE 16-bit halves of a word.
/// Congruent mod 0xFFFF to the end-around-carry sum ChecksumStage keeps,
/// so finish_inet() below folds both to the same canonical residue.
inline std::uint64_t sum16_word(std::uint64_t w) noexcept {
  return (w & 0xFFFF) + ((w >> 16) & 0xFFFF) + ((w >> 32) & 0xFFFF) +
         (w >> 48);
}

/// Continues an exact LE 16-bit-word sum over the last bytes of a buffer
/// (whole 8-byte words, then a zero-padded tail). Read-only.
inline std::uint64_t absorb_tail(const std::uint8_t* p, std::size_t n,
                                 std::uint64_t sum) noexcept {
  while (n >= 8) {
    sum += sum16_word(load_u64_le(p));
    p += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    sum += sum16_word(w);
  }
  return sum;
}

/// Folds an exact 16-bit-word sum with end-around carries to at most 16
/// bits, keeping it congruent mod 0xFFFF (and nonzero when it was).
inline std::uint64_t fold16(std::uint64_t sum) noexcept {
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return sum;
}

/// Folds an exact 16-bit-word sum to the RFC 1071 checksum exactly the way
/// ChecksumStage::result() does: fold, swap out of LE word space,
/// complement.
inline std::uint16_t finish_inet(std::uint64_t sum) noexcept {
  const auto le = static_cast<std::uint16_t>(fold16(sum));
  return static_cast<std::uint16_t>(
      ~static_cast<std::uint16_t>((le << 8) | (le >> 8)));
}

/// Swaps both 32-bit halves of an 8-byte word (Byteswap32Stage::word).
inline std::uint64_t bswap32_pair(std::uint64_t w) noexcept {
  const auto lo = byteswap32(static_cast<std::uint32_t>(w));
  const auto hi = byteswap32(static_cast<std::uint32_t>(w >> 32));
  return (std::uint64_t{hi} << 32) | lo;
}

/// End of the byteswap region of an n-byte buffer under the
/// Byteswap32Stage tail rule: whole 8-byte words swap both 32-bit halves,
/// an exactly-4-byte tail swaps, any other tail (1-3 or 5-7 bytes) passes
/// through unchanged. Always a multiple of 4.
inline std::size_t swap_region_end(std::size_t n) noexcept {
  const std::size_t r = n % 8;
  return r == 4 ? n : n - r;
}

/// Scalar remainder of the fused [xor] + checksum [+ byteswap] kernels:
/// processes the `n` bytes at `p` as 8-byte words, then one zero-padded
/// partial word, and returns `sum` extended by their exact word sum. With
/// kXor the bytes are first XORed with the `n` keystream bytes at `ks`.
/// Replicates ilp_fused(EncryptStage?, ChecksumStage, Byteswap32Stage?)
/// bit for bit: keystream masked to the data length, checksum over the
/// zero-padded plaintext word, a partial tail byteswapped only when exactly
/// 4 bytes remain.
template <bool kXor, bool kSwap>
inline std::uint64_t fused_tail(std::uint8_t* p, const std::uint8_t* ks,
                                std::size_t n, std::uint64_t sum) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = load_u64_le(p + i);
    if constexpr (kXor) w ^= load_u64_le(ks + i);
    sum += sum16_word(w);
    if constexpr (kSwap) w = bswap32_pair(w);
    store_u64_le(p + i, w);
  }
  const std::size_t rem = n - i;
  if (rem > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, rem);
    if constexpr (kXor) {
      std::uint64_t kw = 0;  // only rem keystream bytes: padding stays 0
      std::memcpy(&kw, ks + i, rem);
      w ^= kw;
    }
    sum += sum16_word(w);
    if (kSwap && rem == 4) w = byteswap32(static_cast<std::uint32_t>(w));
    std::memcpy(p + i, &w, rem);
  }
  return sum;
}

/// Rebuilds the ChaCha20 initial state ("expand 32-byte k" | key | counter
/// | nonce, all LE) — the same layout crypto/chacha20.cpp::init_state uses.
inline void chacha_state(std::uint32_t s[16], const ChaChaKey& k,
                         std::uint32_t counter) noexcept {
  s[0] = 0x61707865;
  s[1] = 0x3320646e;
  s[2] = 0x79622d32;
  s[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) std::memcpy(&s[4 + i], k.key.data() + 4 * i, 4);
  s[12] = counter;
  for (int i = 0; i < 3; ++i) {
    std::memcpy(&s[13 + i], k.nonce.data() + 4 * i, 4);
  }
}

/// The one keystream walk every tier's ChaCha20 kernels share. XORs `data`
/// with the cursor's keystream in pieces that each lie inside one keystream
/// batch: `refill(c)` generates the next batch once the current one is used
/// up, and `run(p, ks, n)` XORs (and checksums, and byteswaps) one piece,
/// returning its exact 16-bit-word sum counted from the piece's first byte.
/// A piece that starts at an odd offset has its words shifted by one byte,
/// so its sum counts x256 (mod 0xFFFF) in the sum of the whole span.
///
/// Pieces start where batches do, at keystream offsets that are multiples
/// of 64: a byteswapping `run` sees whole 32-bit units as long as the
/// cursor's position is a multiple of 4 when the span begins.
template <class Refill, class Run>
inline std::uint64_t keystream_walk(KeystreamCursor& c, MutableBytes data,
                                    Refill refill, Run run) noexcept {
  std::uint8_t* p = data.data();
  const std::size_t n = data.size();
  std::uint64_t sum = 0;
  for (std::size_t off = 0; off < n;) {
    if (c.used == c.have) refill(c);
    const std::size_t take = std::min<std::size_t>(n - off, c.have - c.used);
    const std::uint64_t s = run(p + off, c.ks + c.used, take);
    sum += (off & 1) != 0 ? fold16(s) << 8 : s;
    c.used += static_cast<std::uint32_t>(take);
    off += take;
  }
  return sum;
}

}  // namespace ngp::simd::detail
