// Tests for src/alf/wire: fragment/NACK/PROGRESS/DONE codecs, header
// integrity, and the self-describing-fragment invariants.
#include <gtest/gtest.h>

#include "alf/wire.h"
#include "util/rng.h"

namespace ngp::alf {
namespace {

DataFragment sample_fragment(ConstBytes payload) {
  DataFragment f;
  f.session = 7;
  f.adu_id = 42;
  f.name = VideoRegionName{3, 4, 5, 1234}.to_name();
  f.syntax = TransferSyntax::kXdr;
  f.flags = kFlagEncrypted;
  f.checksum_kind = ChecksumKind::kCrc32;
  f.adu_len = static_cast<std::uint32_t>(payload.size() * 3);  // part of a larger ADU
  f.frag_off = static_cast<std::uint32_t>(payload.size());
  f.adu_checksum = 0xDEADBEEF;
  f.payload = payload;
  return f;
}

TEST(AlfWire, FragmentRoundTrip) {
  auto payload = ByteBuffer::from_string("fragment payload");
  DataFragment f = sample_fragment(payload.span());
  ByteBuffer frame = encode_fragment(f);
  EXPECT_EQ(frame.size(), DataFragment::kHeaderSize + payload.size());

  auto msg = decode_message(frame.span());
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, MessageType::kData);
  const DataFragment& g = msg->data;
  EXPECT_EQ(g.session, 7);
  EXPECT_EQ(g.adu_id, 42u);
  EXPECT_EQ(g.name, f.name);
  EXPECT_EQ(g.syntax, TransferSyntax::kXdr);
  EXPECT_EQ(g.flags, kFlagEncrypted);
  EXPECT_EQ(g.checksum_kind, ChecksumKind::kCrc32);
  EXPECT_EQ(g.adu_len, f.adu_len);
  EXPECT_EQ(g.frag_off, f.frag_off);
  EXPECT_EQ(g.adu_checksum, 0xDEADBEEFu);
  EXPECT_EQ(ByteBuffer(g.payload), payload);
}

TEST(AlfWire, FragmentNamePreservedForAllNamespaces) {
  auto payload = ByteBuffer::from_string("x");
  const AduName names[] = {
      generic_name(0xFFFFFFFFFFFFFFFFull),
      FileRegionName{1ull << 40, 65536}.to_name(),
      VideoRegionName{9999, 65535, 65535, 0xFFFFFFFF}.to_name(),
      RpcArgName{123456789, 42}.to_name(),
  };
  for (const auto& name : names) {
    DataFragment f = sample_fragment(payload.span());
    f.name = name;
    auto msg = decode_message(encode_fragment(f).span());
    ASSERT_TRUE(msg.has_value()) << name.to_string();
    EXPECT_EQ(msg->data.name, name) << name.to_string();
  }
}

TEST(AlfWire, HeaderCorruptionDetectedEverywhere) {
  auto payload = ByteBuffer::from_string("payload");
  ByteBuffer frame = encode_fragment(sample_fragment(payload.span()));
  int rejected = 0;
  for (std::size_t i = 0; i < DataFragment::kHeaderSize; ++i) {
    ByteBuffer bad(frame.span());
    bad[i] ^= 0x04;
    if (!decode_message(bad.span()).has_value()) ++rejected;
  }
  // Every single-bit header flip must be rejected (magic/type flips fail
  // structurally; the rest fail the header checksum).
  EXPECT_EQ(rejected, static_cast<int>(DataFragment::kHeaderSize));
}

TEST(AlfWire, PayloadCorruptionIsNotTheHeadersJob) {
  // Fragment payload damage is caught by the per-ADU checksum (stage 2),
  // not the header checksum — the frame still parses.
  auto payload = ByteBuffer::from_string("payload");
  ByteBuffer frame = encode_fragment(sample_fragment(payload.span()));
  frame[DataFragment::kHeaderSize + 2] ^= 0xFF;
  EXPECT_TRUE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, FragmentBeyondAduRejected) {
  auto payload = ByteBuffer::from_string("12345678");
  DataFragment f = sample_fragment(payload.span());
  f.adu_len = 4;  // fragment would overrun the ADU
  f.frag_off = 0;
  EXPECT_FALSE(decode_message(encode_fragment(f).span()).has_value());
}

TEST(AlfWire, TruncatedFrameRejected) {
  auto payload = ByteBuffer::from_string("payload");
  ByteBuffer frame = encode_fragment(sample_fragment(payload.span()));
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{10}, DataFragment::kHeaderSize - 1,
        frame.size() - 1}) {
    EXPECT_FALSE(decode_message(frame.span().subspan(0, keep)).has_value()) << keep;
  }
}

TEST(AlfWire, BadMagicRejected) {
  auto payload = ByteBuffer::from_string("p");
  ByteBuffer frame = encode_fragment(sample_fragment(payload.span()));
  frame[0] = 0x42;
  EXPECT_FALSE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, UnknownEnumValuesRejected) {
  auto payload = ByteBuffer::from_string("p");
  DataFragment f = sample_fragment(payload.span());
  ByteBuffer frame = encode_fragment(f);
  // Patch the syntax byte (offset 33) to an invalid value and re-seal the
  // header so only the enum check can reject it.
  frame[33] = 99;
  // Recompute header checksum.
  frame[DataFragment::kHeaderSize - 2] = 0;
  frame[DataFragment::kHeaderSize - 1] = 0;
  const auto ck =
      internet_checksum_unrolled(frame.span().subspan(0, DataFragment::kHeaderSize - 2));
  frame[DataFragment::kHeaderSize - 2] = static_cast<std::uint8_t>(ck >> 8);
  frame[DataFragment::kHeaderSize - 1] = static_cast<std::uint8_t>(ck);
  EXPECT_FALSE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, NackRoundTrip) {
  NackMessage m;
  m.session = 3;
  m.adu_ids = {1, 5, 9, 0xFFFFFFFF};
  auto msg = decode_message(encode_nack(m).span());
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, MessageType::kNack);
  EXPECT_EQ(msg->nack.session, 3);
  EXPECT_EQ(msg->nack.adu_ids, m.adu_ids);
}

TEST(AlfWire, EmptyNackRoundTrip) {
  NackMessage m;
  m.session = 1;
  auto msg = decode_message(encode_nack(m).span());
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->nack.adu_ids.empty());
}

TEST(AlfWire, MaxSizeNackRoundTrip) {
  NackMessage m;
  m.session = 1;
  for (std::uint32_t i = 0; i < NackMessage::kMaxIds; ++i) m.adu_ids.push_back(i);
  auto msg = decode_message(encode_nack(m).span());
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->nack.adu_ids.size(), NackMessage::kMaxIds);
}

TEST(AlfWire, NackCorruptionRejected) {
  NackMessage m;
  m.session = 3;
  m.adu_ids = {10, 20};
  ByteBuffer frame = encode_nack(m);
  frame[7] ^= 0x01;  // inside an id
  EXPECT_FALSE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, ForgedNackCountRejected) {
  NackMessage m;
  m.session = 3;
  m.adu_ids = {1, 2};
  ByteBuffer frame = encode_nack(m);
  // Patch the count field (bytes 4..5) to claim kMaxIds ids in a frame
  // that carries two: the decoder must reject on the remaining-length
  // check, before sizing any vector to the forged count.
  frame[4] = static_cast<std::uint8_t>(NackMessage::kMaxIds >> 8);
  frame[5] = static_cast<std::uint8_t>(NackMessage::kMaxIds & 0xFF);
  EXPECT_FALSE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, OverMaxNackCountRejected) {
  NackMessage m;
  m.session = 3;
  m.adu_ids = {1};
  ByteBuffer frame = encode_nack(m);
  const std::uint16_t over = NackMessage::kMaxIds + 1;
  frame[4] = static_cast<std::uint8_t>(over >> 8);
  frame[5] = static_cast<std::uint8_t>(over & 0xFF);
  EXPECT_FALSE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, TruncatedNackRejected) {
  NackMessage m;
  m.session = 1;
  for (std::uint32_t i = 0; i < NackMessage::kMaxIds; ++i) m.adu_ids.push_back(i);
  ByteBuffer frame = encode_nack(m);
  for (std::size_t keep : {frame.size() - 1, frame.size() / 2, std::size_t{6}}) {
    EXPECT_FALSE(decode_message(frame.span().subspan(0, keep)).has_value()) << keep;
  }
}

TEST(AlfWire, ForgedResumeBitmapLenRejected) {
  ResumeMessage m;
  m.session = 5;
  m.epoch = 1;
  m.closed_prefix = 10;
  m.bitmap = {0xAB, 0xCD};
  ByteBuffer frame = encode_resume(m);
  // bitmap_len lives at bytes 10..11 (prologue 4 + epoch + pad +
  // closed_prefix). Claim the maximum in a frame that carries two bytes.
  const auto forged = static_cast<std::uint16_t>(ResumeMessage::kMaxBitmapBytes);
  frame[10] = static_cast<std::uint8_t>(forged >> 8);
  frame[11] = static_cast<std::uint8_t>(forged & 0xFF);
  EXPECT_FALSE(decode_message(frame.span()).has_value());
}

TEST(AlfWire, ProgressRoundTrip) {
  for (bool complete : {false, true}) {
    ProgressMessage m;
    m.session = 9;
    m.complete_adus = 100;
    m.highest_adu_seen = 120;
    m.consume_rate_kbps = 45000;
    m.session_complete = complete;
    auto msg = decode_message(encode_progress(m).span());
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->type, MessageType::kProgress);
    EXPECT_EQ(msg->progress.complete_adus, 100u);
    EXPECT_EQ(msg->progress.highest_adu_seen, 120u);
    EXPECT_EQ(msg->progress.consume_rate_kbps, 45000u);
    EXPECT_EQ(msg->progress.session_complete, complete);
  }
}

TEST(AlfWire, DoneRoundTrip) {
  DoneMessage m;
  m.session = 2;
  m.total_adus = 77;
  auto msg = decode_message(encode_done(m).span());
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->type, MessageType::kDone);
  EXPECT_EQ(msg->done.session, 2);
  EXPECT_EQ(msg->done.total_adus, 77u);
}

// ---- Golden wire bytes -----------------------------------------------------
//
// The round-trip tests above would still pass if encoder and decoder
// drifted together. These pin the exact bytes each encoder emits, so any
// change to field order, padding, or the header seal shows up here.

TEST(AlfWireGolden, DataFrame) {
  const auto payload = ByteBuffer::from_string("golden payload!!");
  DataFragment f;
  f.session = 7;
  f.epoch = 3;
  f.adu_id = 42;
  f.name = VideoRegionName{3, 4, 5, 1234}.to_name();
  f.syntax = TransferSyntax::kXdr;
  f.flags = kFlagEncrypted;
  f.checksum_kind = ChecksumKind::kCrc32;
  f.fec_k = 4;
  f.adu_len = 48;
  f.frag_off = 16;
  f.adu_checksum = 0xDEADBEEF;
  f.payload = payload.span();
  EXPECT_EQ(to_hex(encode_fragment(f).span()),
            "41" "00" "0007" "0000002a"                         // magic type session id
            "02" "0000000000000003" "0000000000040005"          // name ns a b
            "00000000000004d2"                                  // name c
            "02" "01" "04" "04" "03"                            // syntax flags ck fec epoch
            "00000030" "00000010" "0010" "deadbeef"             // adu_len off len cksum
            "3bd3"                                              // header checksum
            "676f6c64656e207061796c6f61642121");                // payload
}

TEST(AlfWireGolden, NackFrames) {
  NackMessage empty;
  empty.session = 1;
  EXPECT_EQ(to_hex(encode_nack(empty).span()), "410100010000befd");

  NackMessage one;
  one.session = 3;
  one.adu_ids = {0x01020304};
  EXPECT_EQ(to_hex(encode_nack(one).span()), "41010003000101020304baf4");

  // 256 ids 0..255: the id run is spelled out as hex by the test itself,
  // so the whole frame is pinned without a 2 KiB literal.
  NackMessage full;
  full.session = 1;
  std::string ids_hex;
  for (std::uint32_t i = 0; i < NackMessage::kMaxIds; ++i) {
    full.adu_ids.push_back(i);
    const std::uint8_t be[4] = {0, 0, 0, static_cast<std::uint8_t>(i)};
    ids_hex += to_hex(be);
  }
  EXPECT_EQ(to_hex(encode_nack(full).span()), "41010001" "0100" + ids_hex + "3e7d");
}

TEST(AlfWireGolden, ProgressDoneProbeFrames) {
  ProgressMessage p;
  p.session = 9;
  p.complete_adus = 100;
  p.highest_adu_seen = 120;
  p.consume_rate_kbps = 45000;
  p.session_complete = true;
  EXPECT_EQ(to_hex(encode_progress(p).span()), "4102000900000064000000780000afc800010e4f");

  DoneMessage d;
  d.session = 2;
  d.total_adus = 77;
  EXPECT_EQ(to_hex(encode_done(d).span()), "410300020000004dbead");

  ProbeMessage pr;
  pr.session = 4;
  pr.epoch = 6;
  pr.seq = 0xCAFEBABE;
  EXPECT_EQ(to_hex(encode_probe(pr).span()), "410500040600cafebabe3339");
}

TEST(AlfWireGolden, ResumeFrameWithOddBitmapIsPadded) {
  ResumeMessage m;
  m.session = 5;
  m.epoch = 2;
  m.closed_prefix = 10;
  m.bitmap = {0xAB, 0xCD, 0x01};  // odd: one zero pad byte on the wire
  EXPECT_EQ(to_hex(encode_resume(m).span()), "4104000502000000000a0004abcd0100101b");
}

TEST(AlfWire, PayloadCapacity) {
  EXPECT_EQ(fragment_payload_capacity(1500), 1500 - DataFragment::kHeaderSize);
  EXPECT_EQ(fragment_payload_capacity(DataFragment::kHeaderSize), 0u);
  EXPECT_EQ(fragment_payload_capacity(10), 0u);
}

TEST(AduNameTest, ToStringAllNamespaces) {
  EXPECT_EQ(generic_name(5).to_string(), "generic(5)");
  EXPECT_EQ((FileRegionName{100, 50}.to_name().to_string()), "file[100+50)");
  const auto video = VideoRegionName{1, 2, 3, 4}.to_name().to_string();
  EXPECT_NE(video.find("video"), std::string::npos);
  const auto rpc = RpcArgName{7, 1}.to_name().to_string();
  EXPECT_NE(rpc.find("rpc"), std::string::npos);
}

TEST(AduNameTest, TypedRoundTrips) {
  const FileRegionName f{123456789, 4096};
  const auto f2 = FileRegionName::from_name(f.to_name());
  EXPECT_EQ(f2.receiver_offset, f.receiver_offset);
  EXPECT_EQ(f2.length, f.length);

  const VideoRegionName v{10, 20, 30, 40};
  const auto v2 = VideoRegionName::from_name(v.to_name());
  EXPECT_EQ(v2.frame, 10u);
  EXPECT_EQ(v2.tile_x, 20u);
  EXPECT_EQ(v2.tile_y, 30u);
  EXPECT_EQ(v2.timestamp_ms, 40u);

  const RpcArgName r{555, 6};
  const auto r2 = RpcArgName::from_name(r.to_name());
  EXPECT_EQ(r2.call_id, 555u);
  EXPECT_EQ(r2.arg_index, 6u);
}

}  // namespace
}  // namespace ngp::alf
