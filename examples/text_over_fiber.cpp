// text_over_fiber — the remaining substrates in one program.
//
// A text document travels from A to B:
//
//   1. presentation: local ASCII -> network ASCII (footnote 1 of the
//      paper: "even a universal standard such as ASCII may require
//      reformatting" — and the conversion CHANGES SIZES, so the sender
//      names each ADU by its position in the receiver's converted file);
//   2. association: a negotiated ALF session each way through one
//      session plane (the responder acknowledges receipt on the reverse
//      direction, over the same framed pipes);
//   3. substrate: an UNFRAMED byte pipe (§5's WDM fiber, "need not
//      provide transmission framing at all") with bit corruption, made a
//      NetPath by the sync-hunting framing sublayer (§3's Framing
//      function).
//
//   $ ./text_over_fiber
#include <cstdio>
#include <memory>
#include <string>

#include "alf/file_sink.h"
#include "alf/negotiate.h"
#include "netsim/framing.h"
#include "presentation/text.h"
#include "sessiond/sessiond.h"
#include "util/rng.h"

using namespace ngp;

namespace {

std::string make_document() {
  std::string doc;
  for (int line = 1; line <= 400; ++line) {
    doc += "line " + std::to_string(line) +
           ": application level framing means the application chooses the "
           "units of transfer, naming, and recovery.\n";
  }
  return doc;
}

}  // namespace

int main() {
  EventLoop loop;

  // Two unframed byte pipes (one per direction) with corruption on the
  // data direction, wrapped by framing into NetPaths.
  ByteStreamConfig fwd_cfg;
  fwd_cfg.bandwidth_bps = 20e6;
  fwd_cfg.propagation_delay = 4 * kMillisecond;
  fwd_cfg.bit_flip_rate = 0.0001;  // ~1 flip per 10 KB: several frames die
  fwd_cfg.seed = 1;
  ByteStreamConfig rev_cfg = fwd_cfg;
  rev_cfg.bit_flip_rate = 0;
  rev_cfg.seed = 2;
  ByteStreamLink fwd_pipe(loop, fwd_cfg);
  ByteStreamLink rev_pipe(loop, rev_cfg);
  FramedBytePath a_to_b(fwd_pipe, 4096);
  FramedBytePath b_to_a(rev_pipe, 4096);

  // One session plane over the framed fiber: A->B frames arrive on
  // a_to_b, B->A frames on b_to_a, both under one peer.
  sessiond::Sessiond daemon(loop);
  const std::uint32_t peer = daemon.bind(a_to_b);
  daemon.bind(b_to_a, peer);

  // The handshake negotiates the session out of band; the offer is built
  // (and validated) with the same builder Sessiond::open users use. A
  // sends on the agreed session id, B answers on the next one.
  alf::HandshakeResponder responder(loop, nullptr, b_to_a, alf::Capabilities{});
  auto offer = alf::SessionConfig::builder()
                   .nack_delay(15 * kMillisecond)
                   .build();
  alf::HandshakeInitiator initiator(loop, a_to_b, nullptr, offer.value());
  daemon.set_on_handshake([&](std::uint32_t, ConstBytes frame) {
    responder.handle_frame(frame);
    initiator.handle_frame(frame);
  });

  // The document and its network form. Conversion changes the size, so
  // region names are computed in CONVERTED (receiver) coordinates — the
  // §5 rule that the sender must name ADUs in receiver-meaningful terms.
  const std::string local_doc = make_document();
  const ByteBuffer network_doc =
      text::to_network(ByteBuffer::from_string(local_doc).span());
  std::printf("document: %zu bytes local, %zu bytes in network form\n",
              local_doc.size(), network_doc.size());

  alf::FileSink sink(network_doc.size());
  bool all_received = false;
  bool acked = false;
  sessiond::SessionHandle document, thanks;

  // On agreement, open both directions: the document A->B on the agreed
  // session id, the acknowledgement B->A on the next.
  responder.set_on_session([&](const alf::SessionConfig& agreed) {
    alf::SessionConfig back = agreed;
    back.session_id = static_cast<std::uint16_t>(agreed.session_id + 1);
    auto fwd = daemon.open(agreed, {&a_to_b, &b_to_a, &b_to_a});
    auto rev = daemon.open(back, {&b_to_a, &a_to_b, &a_to_b});
    if (!fwd.ok() || !rev.ok()) {
      std::printf("open failed\n");
      return;
    }
    document = std::move(fwd.value());
    thanks = std::move(rev.value());

    document.set_on_adu([&](Adu&& adu) {
      if (auto s = sink.place(adu); !s.is_ok()) {
        std::printf("receiver: place failed: %s\n", s.to_string().c_str());
      }
    });
    document.set_on_complete([&] {
      all_received = true;
      std::printf("t=%-9s receiver: document complete (%llu ADUs placed, %llu "
                  "out of order)\n",
                  format_sim_time(loop.now()).c_str(),
                  static_cast<unsigned long long>(sink.adus_placed()),
                  static_cast<unsigned long long>(sink.out_of_order_placements()));
      // Acknowledge at application level on the reverse direction.
      auto ack = ByteBuffer::from_string("document received, thank you");
      (void)thanks.send_adu(generic_name(1), ack.span());
      thanks.finish();
    });
    thanks.set_on_adu([&](Adu&& adu) {
      std::printf("t=%-9s sender: peer says \"%.*s\"\n",
                  format_sim_time(loop.now()).c_str(),
                  static_cast<int>(adu.payload.size()),
                  reinterpret_cast<const char*>(adu.payload.data()));
      acked = true;
    });
  });

  initiator.set_on_done([&](Result<alf::SessionConfig> r) {
    if (!r.ok()) {
      std::printf("handshake failed: %s\n", r.error().to_string().c_str());
      return;
    }
    std::printf("t=%-9s sender: session up, streaming document\n",
                format_sim_time(loop.now()).c_str());
    constexpr std::size_t kAdu = 2000;
    for (std::size_t off = 0; off < network_doc.size(); off += kAdu) {
      const std::size_t len = std::min(kAdu, network_doc.size() - off);
      auto name = FileRegionName{off, len}.to_name();
      if (!document.send_adu(name, network_doc.subspan(off, len)).ok()) {
        std::printf("send failed at %zu\n", off);
        return;
      }
    }
    document.finish();
  });

  initiator.start();
  loop.run();

  // Convert back to local form and verify.
  const ByteBuffer back = text::from_network(sink.contents());
  const bool intact = all_received &&
                      back == ByteBuffer::from_string(local_doc) && acked;
  std::printf("\nframing: %llu frames delivered, %llu damaged+dropped, %llu "
              "resync slides\n",
              static_cast<unsigned long long>(a_to_b.stats().frames_delivered),
              static_cast<unsigned long long>(a_to_b.stats().crc_rejects),
              static_cast<unsigned long long>(a_to_b.stats().resync_slides));
  std::printf("pipe: %llu bytes corrupted in flight\n",
              static_cast<unsigned long long>(fwd_pipe.stats().bytes_corrupted));
  std::printf("round trip local->network->local intact: %s\n",
              intact ? "yes" : "NO");
  return intact ? 0 : 1;
}
