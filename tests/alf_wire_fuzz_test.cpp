// alf_wire_fuzz_test.cpp — seeded round-trip and hostile-input fuzz for the
// ALF wire codec (alf/wire: DATA, NACK, PROGRESS, DONE, RESUME, PROBE).
//
// The contract under attack: decode_message fed a damaged frame returns
// nullopt — NEVER a message, a crash, or a read past the buffer (the ASan
// lane enforces the overread half; `ctest -L fuzz`). Every sweep is seeded,
// so a failure reproduces from the printed seed, and each hostile sweep is
// run twice and its verdict sequence compared: decoding is a pure function
// of its input.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alf/wire.h"
#include "util/rng.h"

namespace ngp::alf {
namespace {

constexpr MessageType kTypes[] = {MessageType::kData,   MessageType::kNack,
                                  MessageType::kProgress, MessageType::kDone,
                                  MessageType::kResume, MessageType::kProbe};

const char* type_name(MessageType t) {
  switch (t) {
    case MessageType::kData: return "DATA";
    case MessageType::kNack: return "NACK";
    case MessageType::kProgress: return "PROGRESS";
    case MessageType::kDone: return "DONE";
    case MessageType::kResume: return "RESUME";
    case MessageType::kProbe: return "PROBE";
  }
  return "?";
}

/// Re-encodes a decoded message with the encoder for its type.
ByteBuffer encode(const Message& m) {
  switch (m.type) {
    case MessageType::kData: return encode_fragment(m.data);
    case MessageType::kNack: return encode_nack(m.nack);
    case MessageType::kProgress: return encode_progress(m.progress);
    case MessageType::kDone: return encode_done(m.done);
    case MessageType::kResume: return encode_resume(m.resume);
    case MessageType::kProbe: return encode_probe(m.probe);
  }
  return {};
}

/// A valid frame of type `t` with every field drawn from `seed`.
ByteBuffer seeded_frame(MessageType t, std::uint64_t seed) {
  Rng rng(seed);
  const auto session = static_cast<std::uint16_t>(rng.next());
  Message m;
  m.type = t;
  switch (t) {
    case MessageType::kData: {
      ByteBuffer payload(rng.uniform(200));
      rng.fill(payload.span());
      DataFragment& f = m.data;
      f.session = session;
      f.epoch = static_cast<std::uint8_t>(rng.next());
      f.adu_id = static_cast<std::uint32_t>(rng.next());
      f.name.ns = static_cast<NameSpace>(
          rng.uniform(static_cast<std::uint64_t>(NameSpace::kRpcArg) + 1));
      f.name.a = rng.next();
      f.name.b = rng.next();
      f.name.c = rng.next();
      f.syntax = static_cast<TransferSyntax>(
          rng.uniform(static_cast<std::uint64_t>(TransferSyntax::kBerToolkit) + 1));
      f.flags = static_cast<std::uint8_t>(rng.next());
      f.checksum_kind = static_cast<ChecksumKind>(
          rng.uniform(static_cast<std::uint64_t>(ChecksumKind::kCrc32) + 1));
      f.fec_k = static_cast<std::uint8_t>(rng.next());
      f.frag_off = static_cast<std::uint32_t>(rng.uniform(1u << 20));
      f.adu_len = f.frag_off + static_cast<std::uint32_t>(payload.size()) +
                  static_cast<std::uint32_t>(rng.uniform(1u << 20));
      f.adu_checksum = static_cast<std::uint32_t>(rng.next());
      f.payload = payload.span();
      return encode_fragment(f);  // copies the payload out before it dies
    }
    case MessageType::kNack:
      m.nack.session = session;
      m.nack.adu_ids.resize(rng.uniform(NackMessage::kMaxIds + 1));
      for (auto& id : m.nack.adu_ids) id = static_cast<std::uint32_t>(rng.next());
      break;
    case MessageType::kProgress:
      m.progress.session = session;
      m.progress.complete_adus = static_cast<std::uint32_t>(rng.next());
      m.progress.highest_adu_seen = static_cast<std::uint32_t>(rng.next());
      m.progress.consume_rate_kbps = static_cast<std::uint32_t>(rng.next());
      m.progress.session_complete = (rng.next() & 1) != 0;
      break;
    case MessageType::kDone:
      m.done.session = session;
      m.done.total_adus = static_cast<std::uint32_t>(rng.next());
      break;
    case MessageType::kResume:
      m.resume.session = session;
      m.resume.epoch = static_cast<std::uint8_t>(rng.next());
      m.resume.closed_prefix = static_cast<std::uint32_t>(rng.next());
      // Even lengths only: an odd bitmap is padded on the wire, so it would
      // not re-encode to the same frame.
      m.resume.bitmap.resize(2 * rng.uniform(ResumeMessage::kMaxBitmapBytes / 2 + 1));
      for (auto& b : m.resume.bitmap) b = static_cast<std::uint8_t>(rng.next());
      break;
    case MessageType::kProbe:
      m.probe.session = session;
      m.probe.epoch = static_cast<std::uint8_t>(rng.next());
      m.probe.seq = static_cast<std::uint32_t>(rng.next());
      break;
  }
  return encode(m);
}

/// Bytes the header checksum covers: all of a control frame, the header of
/// a DATA frame (its payload is the per-ADU checksum's job, not the wire's).
std::size_t sealed_bytes(MessageType t, const ByteBuffer& frame) {
  return t == MessageType::kData ? DataFragment::kHeaderSize : frame.size();
}

/// Folds one verdict into a trace: 'A' accepted, 'R' rejected.
void fold(const std::optional<Message>& m, std::string& trace) {
  trace += m.has_value() ? 'A' : 'R';
}

constexpr std::uint64_t kSeeds = 24;

TEST(AlfWireFuzz, SeededFramesRoundTripEveryType) {
  for (MessageType t : kTypes) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const ByteBuffer frame = seeded_frame(t, seed);
      auto m = decode_message(frame.span());
      ASSERT_TRUE(m.has_value()) << type_name(t) << " seed " << seed;
      ASSERT_EQ(m->type, t);
      // Decoding then re-encoding is byte-identical: the codec is canonical.
      EXPECT_EQ(encode(*m), frame) << type_name(t) << " seed " << seed;
    }
  }
}

TEST(AlfWireFuzz, EveryTruncationRejected) {
  for (MessageType t : kTypes) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const ByteBuffer frame = seeded_frame(t, seed);
      for (std::size_t cut = 0; cut < frame.size(); ++cut) {
        ASSERT_FALSE(decode_message(frame.span().first(cut)).has_value())
            << type_name(t) << " seed " << seed << " cut " << cut;
      }
    }
  }
}

TEST(AlfWireFuzz, EverySealedBitFlipRejectedDeterministically) {
  for (MessageType t : kTypes) {
    std::string traces[2];
    for (auto& trace : traces) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const ByteBuffer frame = seeded_frame(t, seed);
        for (std::size_t bit = 0; bit < sealed_bytes(t, frame) * 8; ++bit) {
          ByteBuffer bad(frame);
          bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
          const auto m = decode_message(bad.span());
          EXPECT_FALSE(m.has_value())
              << type_name(t) << " seed " << seed << " bit " << bit;
          fold(m, trace);
        }
      }
    }
    EXPECT_EQ(traces[0], traces[1]) << type_name(t);
  }
}

TEST(AlfWireFuzz, RandomBytesRejectedDeterministically) {
  // Pure junk, and junk behind a valid magic + type byte so every
  // type-specific parser sees it.
  std::string traces[2];
  for (auto& trace : traces) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      Rng rng(0xA1F0 + seed);
      ByteBuffer junk(rng.uniform(1200));
      rng.fill(junk.span());
      auto m = decode_message(junk.span());
      EXPECT_FALSE(m.has_value()) << "seed " << seed;
      fold(m, trace);
      if (junk.size() < 2) continue;
      for (MessageType t : kTypes) {
        junk[0] = kMagic;
        junk[1] = static_cast<std::uint8_t>(t);
        m = decode_message(junk.span());
        EXPECT_FALSE(m.has_value()) << type_name(t) << " seed " << seed;
        fold(m, trace);
      }
    }
  }
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(AlfWireFuzz, ForgedNackCountsRejected) {
  // The count field (bytes 4..5) is the NACK's one length claim. Every
  // other value must be rejected: too many ids for the frame, more than
  // kMaxIds, or too few (the seal then covers the wrong bytes).
  std::string traces[2];
  for (auto& trace : traces) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const ByteBuffer frame = seeded_frame(MessageType::kNack, seed);
      const std::uint16_t count =
          static_cast<std::uint16_t>((frame[4] << 8) | frame[5]);
      for (std::uint32_t forged = 0; forged <= 0xFFFF;
           forged += forged < 2 * NackMessage::kMaxIds ? 1 : 251) {
        if (forged == count) continue;
        ByteBuffer bad(frame);
        bad[4] = static_cast<std::uint8_t>(forged >> 8);
        bad[5] = static_cast<std::uint8_t>(forged);
        const auto m = decode_message(bad.span());
        EXPECT_FALSE(m.has_value()) << "seed " << seed << " count " << forged;
        fold(m, trace);
      }
    }
  }
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(AlfWireFuzz, ForgedResumeBitmapLengthsRejected) {
  // bitmap_len lives at bytes 10..11 (prologue, epoch, pad, prefix). Odd,
  // over-maximum, over-frame and short claims must all be rejected.
  std::string traces[2];
  for (auto& trace : traces) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const ByteBuffer frame = seeded_frame(MessageType::kResume, seed);
      const std::uint16_t len =
          static_cast<std::uint16_t>((frame[10] << 8) | frame[11]);
      for (std::uint32_t forged = 0; forged <= 0xFFFF;
           forged += forged < 2 * ResumeMessage::kMaxBitmapBytes ? 1 : 127) {
        if (forged == len) continue;
        ByteBuffer bad(frame);
        bad[10] = static_cast<std::uint8_t>(forged >> 8);
        bad[11] = static_cast<std::uint8_t>(forged);
        const auto m = decode_message(bad.span());
        EXPECT_FALSE(m.has_value()) << "seed " << seed << " len " << forged;
        fold(m, trace);
      }
    }
  }
  EXPECT_EQ(traces[0], traces[1]);
}

}  // namespace
}  // namespace ngp::alf
