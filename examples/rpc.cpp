// rpc — remote procedure call exercising the full ngp public API.
//
// The paper's RPC discussion (§5, §6): "the transferred data represents
// the arguments and results of a procedure call, and must be moved to the
// stack of the application process" — presentation conversion runs in
// application context, and each argument is naturally its own ADU, named
// (call id, argument index), unmarshalled in whatever order it arrives.
//
// This example uses every layer of the suite on ONE duplex channel:
//   1. one sessiond dispatcher demultiplexes the channel into the
//      handshake and two associations (calls and replies) — §3's
//      multiplexing function, full duplex, at a single demux point;
//   2. HandshakeInitiator/Responder negotiate the transfer syntax
//      out-of-band (named by OBJECT IDENTIFIER, answered in BER);
//   3. RecordSchema-driven marshalling converts typed argument/result
//      records to the agreed syntax ("only the application knows what the
//      sequence of data items is", §5);
//   4. ALF carries each argument as its own named ADU over a lossy link.
//
//   $ ./rpc
#include <cstdio>
#include <map>
#include <memory>

#include "alf/negotiate.h"
#include "presentation/record.h"
#include "sessiond/sessiond.h"
#include "util/rng.h"

using namespace ngp;

namespace {

constexpr std::uint16_t kCallSession = 1;
constexpr std::uint16_t kReplySession = 2;

/// The remote procedure: stats(vector<int32>) -> {count, sum, min, max}.
struct StatsResult {
  std::int64_t count = 0, sum = 0;
  std::int32_t min = 0, max = 0;
};

StatsResult compute_stats(const std::vector<std::int32_t>& v) {
  StatsResult r;
  r.count = static_cast<std::int64_t>(v.size());
  if (v.empty()) return r;
  r.min = r.max = v[0];
  for (std::int32_t x : v) {
    r.sum += x;
    r.min = std::min(r.min, x);
    r.max = std::max(r.max, x);
  }
  return r;
}

// The application's shared schemas (the abstract syntax both ends know).
const RecordSchema kCallSchema{"stats-call",
                               {FieldType::kInt32,       // procedure id
                                FieldType::kInt32Array}};// the vector argument
const RecordSchema kReplySchema{"stats-reply",
                                {FieldType::kInt64, FieldType::kInt64,
                                 FieldType::kInt32, FieldType::kInt32}};

}  // namespace

int main() {
  EventLoop loop;
  LinkConfig cfg;
  cfg.bandwidth_bps = 20e6;
  cfg.propagation_delay = 8 * kMillisecond;
  cfg.seed = 42;
  DuplexChannel ch(loop, cfg);
  ch.forward.set_loss_rate(0.05);
  ch.reverse.set_loss_rate(0.05);

  // One session plane terminates both link ends: server-bound frames
  // arrive via forward, client-bound frames via reverse, under one peer.
  LinkPath fwd(ch.forward), rev(ch.reverse);
  sessiond::Sessiond daemon(loop);
  const std::uint32_t peer = daemon.bind(fwd);
  daemon.bind(rev, peer);

  // ---- 1+2: negotiate the session out of band. The client offers XDR;
  // the server's capabilities decide. Handshake frames carry no session
  // id, so the dispatcher hands them to both drivers; each ignores the
  // other's kind.
  alf::Capabilities server_caps;  // defaults: raw/lwts/xdr/ber, no crypto
  alf::HandshakeResponder responder(loop, nullptr, rev, server_caps);
  alf::SessionConfig offer;
  offer.session_id = kCallSession;
  offer.syntax = TransferSyntax::kXdr;
  offer.checksum = ChecksumKind::kCrc32;
  alf::HandshakeInitiator initiator(loop, fwd, nullptr, offer);
  daemon.set_on_handshake([&](std::uint32_t, ConstBytes frame) {
    responder.handle_frame(frame);
    initiator.handle_frame(frame);
  });

  // Both associations are opened through the same session plane once the
  // handshake lands; each handle owns a sender/receiver pair.
  sessiond::SessionHandle call_sess, reply_sess;
  TransferSyntax agreed_syntax = TransferSyntax::kRaw;
  Rng rng(7);
  std::vector<std::int32_t> values(1000);
  for (auto& v : values) v = static_cast<std::int32_t>(rng.uniform(20001)) - 10000;
  bool got_reply = false;
  StatsResult remote{};

  responder.set_on_session([&](const alf::SessionConfig& agreed) {
    std::printf("t=%-9s server: session accepted (syntax %s, checksum %s)\n",
                format_sim_time(loop.now()).c_str(),
                std::string(transfer_syntax_name(agreed.syntax)).c_str(),
                std::string(checksum_kind_name(agreed.checksum)).c_str());
    // The call association: the client transmits on the forward link, the
    // server receives and NACKs back on the reverse link. One open()
    // stands up both endpoints of the association.
    auto call = daemon.open(agreed, {&fwd, &rev, &rev});
    if (!call.ok()) {
      std::printf("server: open failed: %s\n", call.error().to_string().c_str());
      return;
    }
    call_sess = std::move(call.value());

    // The reply association runs the other way on its own session id.
    alf::SessionConfig reply_cfg = agreed;
    reply_cfg.session_id = kReplySession;
    auto reply = daemon.open(reply_cfg, {&rev, &fwd, &fwd});
    if (!reply.ok()) {
      std::printf("server: open failed: %s\n",
                  reply.error().to_string().c_str());
      return;
    }
    reply_sess = std::move(reply.value());

    call_sess.set_on_adu([&](Adu&& adu) {
      const auto arg = RpcArgName::from_name(adu.name);
      auto call = decode_record(adu.syntax, kCallSchema, adu.payload.span());
      if (!call.ok()) {
        std::printf("server: bad call encoding: %s\n", call.error().to_string().c_str());
        return;
      }
      const auto proc = std::get<std::int32_t>((*call)[0]);
      const auto& vec = std::get<std::vector<std::int32_t>>((*call)[1]);
      std::printf("t=%-9s server: call %llu proc %d with %zu elements\n",
                  format_sim_time(loop.now()).c_str(),
                  static_cast<unsigned long long>(arg.call_id), proc, vec.size());

      const StatsResult res = compute_stats(vec);
      Record reply{res.count, res.sum, res.min, res.max};
      auto wire = encode_record(adu.syntax, kReplySchema, reply);
      if (!wire.ok()) return;
      (void)reply_sess.send_adu(RpcArgName{arg.call_id, 0}.to_name(),
                                wire->span());
      reply_sess.finish();
    });
  });

  initiator.set_on_done([&](Result<alf::SessionConfig> agreed) {
    if (!agreed.ok()) {
      std::printf("client: handshake failed: %s\n", agreed.error().to_string().c_str());
      return;
    }
    agreed_syntax = agreed->syntax;
    std::printf("t=%-9s client: session agreed, issuing call\n",
                format_sim_time(loop.now()).c_str());
    reply_sess.set_on_adu([&](Adu&& adu) {
      auto reply = decode_record(adu.syntax, kReplySchema, adu.payload.span());
      if (!reply.ok()) {
        std::printf("client: bad reply: %s\n", reply.error().to_string().c_str());
        return;
      }
      remote.count = std::get<std::int64_t>((*reply)[0]);
      remote.sum = std::get<std::int64_t>((*reply)[1]);
      remote.min = std::get<std::int32_t>((*reply)[2]);
      remote.max = std::get<std::int32_t>((*reply)[3]);
      got_reply = true;
      std::printf("t=%-9s client: reply count=%lld sum=%lld min=%d max=%d\n",
                  format_sim_time(loop.now()).c_str(),
                  static_cast<long long>(remote.count),
                  static_cast<long long>(remote.sum), remote.min, remote.max);
    });

    // Marshal the call as one record ADU named (call 1, arg 0).
    Record call{std::int32_t{1}, values};
    auto wire = encode_record(agreed->syntax, kCallSchema, call);
    if (!wire.ok()) {
      std::printf("client: encode failed\n");
      return;
    }
    (void)call_sess.send_adu(RpcArgName{1, 0}.to_name(), wire->span());
    call_sess.finish();
  });

  initiator.start();
  loop.run();

  const StatsResult local = compute_stats(values);
  const bool match = got_reply && local.count == remote.count &&
                     local.sum == remote.sum && local.min == remote.min &&
                     local.max == remote.max;
  std::printf("\nlocal check: count=%lld sum=%lld min=%d max=%d -> %s\n",
              static_cast<long long>(local.count), static_cast<long long>(local.sum),
              local.min, local.max,
              match ? "RPC result matches" : "MISMATCH / NO REPLY");
  return match ? 0 : 1;
}
