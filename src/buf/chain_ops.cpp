#include "buf/chain_ops.h"

#include <algorithm>

#include "checksum/internet.h"
#include "simd/dispatch.h"
#include "simd/kernels_common.h"

namespace ngp::buf {

namespace {

/// Swaps 32-bit units whose bytes may be scattered across segments: bytes
/// are fed in chain order, pointers to the first three bytes of the
/// in-flight unit are held until its fourth byte arrives, then the unit is
/// reversed through the pointers. Bytes at or past the swap-region end are
/// ignored (the flat kernels' pass-through tail).
struct SwapCursor {
  std::uint8_t* pend[3] = {};
  std::size_t filled = 0;

  void feed(MutableBytes bytes, std::size_t pos, std::size_t region_end) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (pos + i >= region_end) return;
      if (filled == 3) {
        std::swap(*pend[0], bytes[i]);
        std::swap(*pend[1], *pend[2]);
        filled = 0;
      } else {
        pend[filled++] = &bytes[i];
      }
    }
  }
};

/// Walks the chain in byteswap-unit order for the three swapping passes.
/// `bulk(body)` gets each segment's unit-aligned run inside the swap
/// region (whole 32-bit units, counted from chain byte 0); `loose(bytes)`
/// gets everything else in chain order: the head of a segment that
/// completes a unit straddling in from the previous one, a unit's first
/// bytes straddling out, and the flat rule's pass-through tail. Loose
/// bytes are swapped through a SwapCursor after `loose` has seen them.
template <class Bulk, class Loose>
void swap_walk(BufChain& c, Bulk bulk, Loose loose) {
  const std::size_t region_end = simd::detail::swap_region_end(c.size());
  SwapCursor cur;
  std::size_t pos = 0;
  c.for_each_mutable([&](MutableBytes seg) {
    std::size_t done = 0;
    if (pos % 4 != 0 && !seg.empty()) {
      done = std::min<std::size_t>(4 - pos % 4, seg.size());
      loose(seg.subspan(0, done));
      cur.feed(seg.subspan(0, done), pos, region_end);
    }
    const std::size_t in_region =
        region_end > pos + done ? region_end - (pos + done) : 0;
    const std::size_t units =
        std::min(seg.size() - done, in_region) & ~std::size_t{3};
    if (units != 0) {
      bulk(seg.subspan(done, units));
      done += units;
    }
    if (done < seg.size()) {
      loose(seg.subspan(done));
      cur.feed(seg.subspan(done), pos + done, region_end);
    }
    pos += seg.size();
  });
}

}  // namespace

std::uint16_t chain_internet_checksum(const BufChain& c) {
  const simd::KernelTable& k = simd::kernels();
  InternetChecksum acc;
  c.for_each([&](ConstBytes seg) {
    if (seg.empty()) return;
    acc.combine(k.internet_checksum(seg), seg.size());
  });
  return acc.finish();
}

std::uint16_t chain_decrypt_internet_checksum(const ChaChaKey& key,
                                              BufChain& c) {
  const simd::KernelTable& k = simd::kernels();
  simd::KeystreamCursor ks(key, 0);
  InternetChecksum acc;
  c.for_each_mutable([&](MutableBytes seg) {
    if (seg.empty()) return;
    acc.combine(k.stream_decrypt_internet_checksum(ks, seg), seg.size());
  });
  return acc.finish();
}

void chain_chacha20_xor(const ChaChaKey& key, BufChain& c) {
  const simd::KernelTable& k = simd::kernels();
  simd::KeystreamCursor ks(key, 0);
  c.for_each_mutable([&](MutableBytes seg) { k.stream_chacha20_xor(ks, seg); });
}

std::uint16_t chain_copy_internet_checksum(const BufChain& c,
                                           MutableBytes dst) {
  const simd::KernelTable& k = simd::kernels();
  InternetChecksum acc;
  std::size_t off = 0;
  c.for_each([&](ConstBytes seg) {
    if (seg.empty()) return;
    const std::uint16_t sum =
        k.copy_internet_checksum(seg, dst.subspan(off, seg.size()));
    acc.combine(sum, seg.size());
    off += seg.size();
  });
  return acc.finish();
}

void chain_byteswap32(BufChain& c) {
  const simd::KernelTable& k = simd::kernels();
  swap_walk(
      c, [&](MutableBytes body) { k.byteswap32(body); }, [](MutableBytes) {});
}

std::uint16_t chain_checksum_byteswap(BufChain& c) {
  const simd::KernelTable& k = simd::kernels();
  InternetChecksum acc;
  // The checksum absorbs loose bytes before the swap cursor moves them.
  swap_walk(
      c,
      [&](MutableBytes body) {
        acc.combine(k.checksum_byteswap(body), body.size());
      },
      [&](MutableBytes bytes) { acc.add(bytes); });
  return acc.finish();
}

std::uint16_t chain_decrypt_checksum_byteswap(const ChaChaKey& key,
                                              BufChain& c) {
  const simd::KernelTable& k = simd::kernels();
  simd::KeystreamCursor ks(key, 0);
  InternetChecksum acc;
  // Loose bytes take their keystream from the same cursor, in chain order,
  // so bulk runs always start a multiple of 4 bytes into the keystream.
  swap_walk(
      c,
      [&](MutableBytes body) {
        acc.combine(k.stream_decrypt_checksum_byteswap(ks, body), body.size());
      },
      [&](MutableBytes bytes) {
        k.stream_chacha20_xor(ks, bytes);
        acc.add(bytes);
      });
  return acc.finish();
}

}  // namespace ngp::buf
