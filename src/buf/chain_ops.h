// chain_ops.h — fused manipulation passes over BufChains (ngp::buf).
//
// The §4 claim, applied to the gather view: one logical pass over a chain
// costs the same memory traffic as one pass over a flat buffer — the
// segment walk only redirects the pointers. Each helper runs the active
// SIMD tier's fused kernel per segment and folds the per-segment Internet
// sums with InternetChecksum::combine, which tracks byte parity so odd
// segment lengths fold correctly (tested against the flat scalar reference
// across every tier in buf_test).
//
// ChaCha20 note: the cipher's keystream is positional. Each decrypting
// helper threads one simd::KeystreamCursor through the segments, so the
// keystream of the whole chain is one stream — every block generated once
// by the tier's vector generator, wherever the segment cuts fall — and the
// result is bit-identical to decrypting the flat buffer.
//
// Ledger discipline matches simd/dispatch.h: these helpers never touch a
// CostAccount; CALLERS charge the analytic pass counts, so recorded costs
// stay tier- and segmentation-independent.
#pragma once

#include <cstdint>

#include "buf/chain.h"
#include "crypto/chacha20.h"

namespace ngp::buf {

/// RFC 1071 checksum of the chain's bytes — identical to
/// internet_checksum(flattened chain). One load-only pass.
std::uint16_t chain_internet_checksum(const BufChain& c);

/// ChaCha20-decrypts the chain in place (keystream block counter 0 at
/// chain byte 0) while computing the Internet checksum of the PLAINTEXT in
/// the same pass. One load+store pass.
std::uint16_t chain_decrypt_internet_checksum(const ChaChaKey& key,
                                              BufChain& c);

/// ChaCha20 XOR in place, no checksum (the layered-mode pass).
void chain_chacha20_xor(const ChaChaKey& key, BufChain& c);

/// Copies the chain into `dst` (dst.size() >= c.size()) while checksumming
/// the copied bytes in the same pass — the final-placement delivery move.
std::uint16_t chain_copy_internet_checksum(const BufChain& c,
                                           MutableBytes dst);

/// Byte-swaps each 32-bit unit of the chain in place (the fused
/// presentation-decode stage of a compiled plan, DESIGN.md §13), counted
/// from chain byte 0 so units that straddle segment boundaries swap
/// correctly. Matches the flat byteswap32 kernel's tail rule exactly:
/// whole 8-byte words and an exactly-4-byte tail swap, any other tail
/// passes through — bit-identical to flatten + byteswap32 + scatter.
void chain_byteswap32(BufChain& c);

/// chain_internet_checksum + chain_byteswap32 in ONE pass: the checksum
/// absorbs the pre-swap wire bytes (so the check still covers what was
/// sent), the swap lands in place. One load+store pass.
std::uint16_t chain_checksum_byteswap(BufChain& c);

/// Decrypt + checksum(plaintext) + byteswap32 fused over the gather view —
/// the chain twin of the decrypt_checksum_byteswap dispatch kernel
/// (keystream block counter 0 at chain byte 0). One load+store pass.
std::uint16_t chain_decrypt_checksum_byteswap(const ChaChaKey& key,
                                              BufChain& c);

}  // namespace ngp::buf
