// resilience_test.cpp — the self-healing session plane (DESIGN.md §10).
//
// Covers the recovery wire format (RESUME/PROBE), the receiver's epoch
// guard and resume bookkeeping, graceful-degradation shedding, the path
// circuit breakers, and the supervisor's full kill-and-resume state
// machine: a supervised session survives an outage that is terminal for a
// bare endpoint pair, retransmits only what never completed, and turns a
// dead-forever substrate into exactly one permanent-failure report.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "alf/wire.h"
#include "netsim/fault.h"
#include "netsim/link.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "resilience/breaker.h"
#include "resilience/supervisor.h"
#include "util/rng.h"

#include "test_paths.h"

namespace ngp::resilience {
namespace {

using alf::AlfReceiver;
using alf::AlfSender;
using alf::DataFragment;
using alf::DoneMessage;
using alf::MessageType;
using alf::ProbeMessage;
using alf::ResumeMessage;
using alf::SessionConfig;
using ngp::test::LoopbackPath;
using ngp::test::ReceiverFixture;
using ngp::test::SinkPath;
using ngp::test::make_fragment;

ByteBuffer payload_of(std::size_t n, std::uint64_t seed) {
  ByteBuffer b(n);
  Rng rng(seed);
  rng.fill(b.span());
  return b;
}

// ---- Wire format -----------------------------------------------------------

TEST(RecoveryWire, ResumeRoundTripsPrefixAndBitmap) {
  ResumeMessage m;
  m.session = 7;
  m.epoch = 3;
  m.closed_prefix = 100;
  m.bitmap = {0b00000101, 0b10000000};  // ids 101, 103, 116 closed

  const ByteBuffer frame = alf::encode_resume(m);
  auto decoded = alf::decode_message(frame.span());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->type, MessageType::kResume);
  const ResumeMessage& r = decoded->resume;
  EXPECT_EQ(r.session, 7u);
  EXPECT_EQ(r.epoch, 3u);
  EXPECT_EQ(r.closed_prefix, 100u);

  EXPECT_TRUE(r.id_closed(1));     // inside the prefix
  EXPECT_TRUE(r.id_closed(100));
  EXPECT_TRUE(r.id_closed(101));   // bit 0
  EXPECT_FALSE(r.id_closed(102));
  EXPECT_TRUE(r.id_closed(103));   // bit 2
  EXPECT_TRUE(r.id_closed(116));   // bit 15
  EXPECT_FALSE(r.id_closed(117));  // beyond the bitmap
  EXPECT_FALSE(r.id_closed(0));    // id 0 is reserved, never closed
}

TEST(RecoveryWire, ProbeRoundTrips) {
  ProbeMessage p;
  p.session = 9;
  p.epoch = 2;
  p.seq = 12345;
  const ByteBuffer frame = alf::encode_probe(p);
  auto decoded = alf::decode_message(frame.span());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->type, MessageType::kProbe);
  EXPECT_EQ(decoded->probe.session, 9u);
  EXPECT_EQ(decoded->probe.epoch, 2u);
  EXPECT_EQ(decoded->probe.seq, 12345u);
}

TEST(RecoveryWire, DamagedResumeRejected) {
  ResumeMessage m;
  m.session = 7;
  m.epoch = 1;
  m.closed_prefix = 10;
  m.bitmap = {0xFF, 0x01};
  ByteBuffer frame = alf::encode_resume(m);
  // Flip one byte anywhere in the sealed region: the checksum must catch it.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    ByteBuffer damaged(frame.span());
    damaged[i] ^= 0x40;
    auto d = alf::decode_message(damaged.span());
    // Either rejected outright or decoded as some OTHER well-formed type
    // is unacceptable: a damaged RESUME must never decode as a RESUME
    // with different content.
    if (d.has_value() && d->type == MessageType::kResume) {
      EXPECT_EQ(d->resume.closed_prefix, m.closed_prefix) << "byte " << i;
      EXPECT_EQ(d->resume.bitmap, m.bitmap) << "byte " << i;
    }
  }
}

TEST(RecoveryWire, ResumeBitmapCappedAtLimit) {
  ResumeMessage m;
  m.session = 1;
  m.bitmap.assign(ResumeMessage::kMaxBitmapBytes + 100, 0xFF);
  const ByteBuffer frame = alf::encode_resume(m);
  auto decoded = alf::decode_message(frame.span());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->resume.bitmap.size(), ResumeMessage::kMaxBitmapBytes);
}

TEST(RecoveryWire, FragmentCarriesEpoch) {
  auto payload = ByteBuffer::from_string("epoch stamp");
  auto f = make_fragment(1, 1, payload.span(),
                         static_cast<std::uint32_t>(payload.size()), 0);
  f.epoch = 5;
  const ByteBuffer frame = alf::encode_fragment(f);
  auto decoded = alf::decode_message(frame.span());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->data.epoch, 5u);
}

// ---- Receiver: epoch guard and resume bookkeeping --------------------------

TEST(EpochGuard, StaleEpochFragmentsDroppedAndCounted) {
  SessionConfig cfg;
  cfg.epoch = 2;
  ReceiverFixture fx(cfg);
  auto payload = ByteBuffer::from_string("stale incarnation");
  auto f = make_fragment(1, 1, payload.span(),
                         static_cast<std::uint32_t>(payload.size()), 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span());
  f.epoch = 1;  // previous incarnation
  fx.inject(f);
  EXPECT_TRUE(fx.delivered.empty());
  EXPECT_EQ(fx.receiver->stats().fragments_stale_epoch, 1u);

  f.epoch = 2;  // current epoch: accepted
  fx.inject(f);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

DataFragment checked_fragment(std::uint32_t id, const ByteBuffer& payload) {
  auto f = make_fragment(1, id, payload.span(),
                         static_cast<std::uint32_t>(payload.size()), 0);
  f.adu_checksum = internet_checksum_unrolled(payload.span());
  return f;
}

TEST(ResumeBooks, SummaryReflectsClosedBooksAndSurvivesRestore) {
  ReceiverFixture fx;
  auto p = payload_of(500, 1);
  fx.inject(checked_fragment(1, p));
  fx.inject(checked_fragment(2, p));
  fx.inject(checked_fragment(4, p));  // 3 stays open
  DoneMessage done;
  done.session = 1;
  done.total_adus = 5;
  fx.data.send(alf::encode_done(done).span());

  const alf::ResumeSummary s = fx.receiver->resume_summary();
  EXPECT_EQ(s.closed_prefix, 2u);
  ASSERT_EQ(s.closed_above.size(), 1u);
  EXPECT_EQ(s.closed_above[0], 4u);
  EXPECT_EQ(s.delivered, 3u);
  EXPECT_EQ(s.expected_total, 5u);

  // Replay into a fresh incarnation: closed state survives, completion
  // fires once the remaining ids (3 and 5) close under the new epoch.
  SessionConfig cfg2;
  cfg2.epoch = 1;
  ReceiverFixture fx2(cfg2);
  bool completed = false;
  fx2.receiver->set_on_complete([&] { completed = true; });
  fx2.receiver->restore(s);
  EXPECT_FALSE(completed);
  EXPECT_EQ(fx2.receiver->adus_delivered(), 3u);

  auto f3 = checked_fragment(3, p);
  f3.epoch = 1;
  auto f5 = checked_fragment(5, p);
  f5.epoch = 1;
  fx2.inject(f3);
  fx2.inject(f5);
  fx2.loop.run();
  EXPECT_TRUE(completed);
  // Only the two new ADUs were delivered by this incarnation's callback.
  EXPECT_EQ(fx2.delivered.size(), 2u);
}

TEST(ResumeBooks, RestoreOfFullyClosedSessionCompletesImmediately) {
  alf::ResumeSummary s;
  s.closed_prefix = 4;
  s.delivered = 4;
  s.highest_seen = 4;
  s.expected_total = 4;
  ReceiverFixture fx;
  bool completed = false;
  fx.receiver->set_on_complete([&] { completed = true; });
  fx.receiver->restore(s);
  EXPECT_TRUE(completed);
}

// ---- Closed-id set -----------------------------------------------------------
//
// The receiver keeps ids 1..prefix as one number and the closed ids above it
// as a 64-bit-word bitmap. resume_summary() exposes both, so these tests
// check the set against a std::set model through the public API.

/// Prefix and ids-above-it of a reference closed set.
std::pair<std::uint32_t, std::vector<std::uint32_t>> model_books(
    const std::set<std::uint32_t>& closed) {
  std::uint32_t prefix = 0;
  while (closed.contains(prefix + 1)) ++prefix;
  std::vector<std::uint32_t> above;
  for (std::uint32_t id : closed) {
    if (id > prefix) above.push_back(id);
  }
  return {prefix, above};
}

TEST(ClosedIdSet, OutOfOrderClosesAcrossWordBoundariesAdvancePrefixExactly) {
  ReceiverFixture fx;
  auto p = payload_of(32, 3);
  // Ids 1..300 span five bitmap words. Hold back one id per word boundary
  // region, close everything else in seeded order, then fill the holes.
  const std::vector<std::uint32_t> holes = {1, 64, 65, 128, 129, 200, 257};
  std::vector<std::uint32_t> order;
  for (std::uint32_t id = 1; id <= 300; ++id) {
    if (std::find(holes.begin(), holes.end(), id) == holes.end()) order.push_back(id);
  }
  Rng rng(17);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform(i)]);
  }
  order.insert(order.end(), {65, 1, 129, 64, 257, 128, 200});

  std::set<std::uint32_t> model;
  for (std::uint32_t id : order) {
    fx.inject(checked_fragment(id, p));
    model.insert(id);
    const alf::ResumeSummary s = fx.receiver->resume_summary();
    const auto [prefix, above] = model_books(model);
    ASSERT_EQ(s.closed_prefix, prefix) << "after closing " << id;
    ASSERT_EQ(s.closed_above, above) << "after closing " << id;
  }
  EXPECT_EQ(fx.receiver->resume_summary().closed_prefix, 300u);
  EXPECT_EQ(fx.delivered.size(), 300u);

  // Every id is closed now: a duplicate of any of them is a late copy.
  const auto late = fx.receiver->stats().fragments_for_done_adus;
  fx.inject(checked_fragment(200, p));
  EXPECT_EQ(fx.receiver->stats().fragments_for_done_adus, late + 1);
}

TEST(ClosedIdSet, ResumeSummaryRoundTripsClosedAboveAcrossWords) {
  ReceiverFixture fx;
  auto p = payload_of(32, 4);
  const std::vector<std::uint32_t> ids = {1, 2, 3, 5, 63, 64, 66, 127, 130, 191, 192, 250, 400};
  for (std::uint32_t id : ids) fx.inject(checked_fragment(id, p));
  const alf::ResumeSummary s = fx.receiver->resume_summary();
  EXPECT_EQ(s.closed_prefix, 3u);
  const std::vector<std::uint32_t> above = {5, 63, 64, 66, 127, 130, 191, 192, 250, 400};
  EXPECT_EQ(s.closed_above, above);

  ReceiverFixture fx2;
  fx2.receiver->restore(s);
  const alf::ResumeSummary back = fx2.receiver->resume_summary();
  EXPECT_EQ(back.closed_prefix, s.closed_prefix);
  EXPECT_EQ(back.closed_above, s.closed_above);
  EXPECT_EQ(back.delivered, s.delivered);

  // The restored set answers membership: closed ids are late duplicates,
  // open ones (4, 65) are delivered and 4 advances the prefix to 5.
  fx2.inject(checked_fragment(130, p));
  EXPECT_EQ(fx2.receiver->stats().fragments_for_done_adus, 1u);
  fx2.inject(checked_fragment(65, p));
  fx2.inject(checked_fragment(4, p));
  EXPECT_EQ(fx2.delivered.size(), 2u);
  EXPECT_EQ(fx2.receiver->resume_summary().closed_prefix, 5u);
}

TEST(ClosedIdSet, NackScanNeverNacksClosedIdAboveThePrefix) {
  ReceiverFixture fx;
  auto p = payload_of(32, 5);
  std::set<std::uint32_t> closed;
  for (std::uint32_t id = 2; id <= 140; ++id) {
    if (id % 7 == 0 || id == 64 || id == 65 || id == 128) continue;
    fx.inject(checked_fragment(id, p));
    closed.insert(id);
  }
  DoneMessage done;
  done.session = 1;
  done.total_adus = 150;
  fx.data.send(alf::encode_done(done).span());
  fx.loop.run_until(fx.loop.now() + 3 * fx.scfg.nack_retry);

  std::vector<std::uint32_t> first_nack;
  for (const ByteBuffer& frame : fx.feedback.frames) {
    auto msg = alf::decode_message(frame.span());
    ASSERT_TRUE(msg.has_value());
    if (msg->type != MessageType::kNack) continue;
    if (first_nack.empty()) first_nack = msg->nack.adu_ids;
    for (std::uint32_t id : msg->nack.adu_ids) {
      EXPECT_FALSE(closed.contains(id)) << "NACKed closed id " << id;
    }
  }
  // The first scan asks for exactly the open ids up to DONE's total.
  std::vector<std::uint32_t> open;
  for (std::uint32_t id = 1; id <= 150; ++id) {
    if (!closed.contains(id)) open.push_back(id);
  }
  EXPECT_EQ(first_nack, open);
}

TEST(ClosedIdSet, IdAtWindowEdgeAcceptedOnePastRejected) {
  SessionConfig cfg;
  cfg.adu_id_window = 100;
  ReceiverFixture fx(cfg);
  auto p = payload_of(32, 6);
  for (std::uint32_t id = 1; id <= 3; ++id) fx.inject(checked_fragment(id, p));
  // Prefix 3: ids up to 3 + 100 are in the window.
  fx.inject(checked_fragment(103, p));
  EXPECT_EQ(fx.delivered.size(), 4u);
  EXPECT_EQ(fx.receiver->stats().fragments_out_of_window, 0u);
  fx.inject(checked_fragment(104, p));
  EXPECT_EQ(fx.delivered.size(), 4u);
  EXPECT_EQ(fx.receiver->stats().fragments_out_of_window, 1u);
  const std::vector<std::uint32_t> above = {103};
  EXPECT_EQ(fx.receiver->resume_summary().closed_above, above);

  // Filling the gap walks the prefix through the whole window in one run.
  for (std::uint32_t id = 4; id <= 102; ++id) fx.inject(checked_fragment(id, p));
  const alf::ResumeSummary s = fx.receiver->resume_summary();
  EXPECT_EQ(s.closed_prefix, 103u);
  EXPECT_TRUE(s.closed_above.empty());
  // The window moved with the prefix: 104 now lies inside it.
  fx.inject(checked_fragment(104, p));
  EXPECT_EQ(fx.delivered.size(), 104u);
}

// ---- Graceful degradation: overload shedding -------------------------------

TEST(Shedding, LowestPriorityIncompleteAdusShedFirst) {
  SessionConfig cfg;
  cfg.shed_highwater = 6000;
  cfg.shed_lowwater = 2000;
  ReceiverFixture fx(cfg);
  std::vector<std::uint32_t> lost;
  fx.receiver->set_on_adu_lost(
      [&](std::uint32_t id, const AduName&, bool) { lost.push_back(id); });
  // Priority by ordinal: ADU 2 is the most sheddable.
  fx.receiver->set_priority([](const AduName& n) {
    return n.a == 2 ? 1 : 5;
  });

  // Three incomplete 3000-byte ADUs: combined charge 9000 > highwater.
  auto part = payload_of(1000, 7);
  for (std::uint32_t id = 1; id <= 3; ++id) {
    auto f = make_fragment(1, id, part.span(), 3000, 0);
    fx.inject(f);
  }

  // Shedding ran inside the last on_data: ADU 2 (lowest priority) first,
  // then — among the equal-priority, equal-progress remainder — the
  // youngest id that is not the just-touched (protected) ADU 3.
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost[0], 2u);
  EXPECT_EQ(lost[1], 1u);
  EXPECT_EQ(fx.receiver->stats().adus_shed, 2u);
  // Shed closures are counted separately from NACK-budget abandonment.
  EXPECT_EQ(fx.receiver->stats().adus_abandoned, 0u);
}

TEST(Shedding, DisabledByDefault) {
  ReceiverFixture fx;  // shed_highwater = 0
  auto part = payload_of(1000, 7);
  for (std::uint32_t id = 1; id <= 30; ++id) {
    auto f = make_fragment(1, id, part.span(), 3000, 0);
    fx.inject(f);
  }
  EXPECT_EQ(fx.receiver->stats().adus_shed, 0u);
}

// ---- Circuit breakers ------------------------------------------------------

/// Synchronous member path with a controllable up/down switch and its own
/// offered/delivered counters (what a SampleFn would read off LinkStats).
class TogglePath final : public NetPath {
 public:
  bool send(ConstBytes frame) override {
    ++offered;
    if (up) {
      ++delivered;
      if (handler_) handler_(frame);
    }
    return true;
  }
  void set_handler(FrameHandler handler) override { handler_ = std::move(handler); }
  std::size_t max_frame_size() const override { return 65535; }

  bool up = true;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;

 private:
  FrameHandler handler_;
};

SampleFn sample_of(const TogglePath& p) {
  return [&p] { return PathSample{p.offered, p.delivered}; };
}

struct BreakerHarness {
  EventLoop loop;
  TogglePath a, b;
  SwitchingPath sw;
  std::uint64_t delivered_up = 0;

  explicit BreakerHarness(BreakerConfig cfg) : sw(loop, cfg) {
    sw.add_path(a, sample_of(a));
    sw.add_path(b, sample_of(b));
    sw.set_probe([](std::uint32_t seq) {
      ProbeMessage p;
      p.session = 1;
      p.seq = seq;
      return alf::encode_probe(p);
    });
    sw.set_handler([this](ConstBytes) { ++delivered_up; });
    sw.start();
  }

  /// Offers one frame per millisecond until `until`, keeping the poll
  /// timer alive (it re-arms only while other events are pending).
  void traffic_until(SimTime until) {
    const ByteBuffer frame = ByteBuffer::from_string("payload frame");
    for (SimTime t = kMillisecond; t <= until; t += kMillisecond) {
      loop.schedule_at(t, [this, frame] { sw.send(frame.span()); });
    }
  }
};

BreakerConfig fast_breaker() {
  BreakerConfig cfg;
  cfg.poll_interval = 10 * kMillisecond;
  cfg.min_polls = 2;
  cfg.trip_below = 0.5;
  cfg.close_above = 0.5;
  cfg.open_backoff = 20 * kMillisecond;
  cfg.probe_count = 4;
  return cfg;
}

TEST(Breaker, TripFailsOverAndProbesCloseTheRecoveredPath) {
  BreakerHarness h(fast_breaker());
  h.traffic_until(200 * kMillisecond);
  h.loop.schedule_at(30 * kMillisecond, [&] { h.a.up = false; });
  h.loop.schedule_at(60 * kMillisecond, [&] { h.a.up = true; });
  h.loop.run();

  const BreakerStats& s = h.sw.stats();
  EXPECT_EQ(s.trips, 1u);
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_EQ(h.sw.active(), 1u);  // traffic moved to b and stays there
  EXPECT_GE(s.half_opens, 1u);
  EXPECT_GE(s.probes_sent, 4u);
  EXPECT_GE(s.closes, 1u);  // a recovered and was re-admitted
  EXPECT_EQ(h.sw.state(0), BreakerState::kClosed);
  EXPECT_EQ(h.sw.state(1), BreakerState::kClosed);
  // Frames offered after the failover kept flowing via b.
  EXPECT_GT(h.b.delivered, 0u);
}

TEST(Breaker, DeadAlternateKeepsHalfOpenBackoffDoubling) {
  BreakerHarness h(fast_breaker());
  h.traffic_until(300 * kMillisecond);
  h.loop.schedule_at(30 * kMillisecond, [&] {
    h.a.up = false;  // a dies and STAYS dead
  });
  h.loop.run();

  const BreakerStats& s = h.sw.stats();
  EXPECT_EQ(s.trips, 1u);
  EXPECT_EQ(h.sw.state(0), BreakerState::kOpen);
  EXPECT_GE(s.half_opens, 2u);  // kept trying
  EXPECT_GE(s.reopens, 2u);     // every trial failed
  EXPECT_EQ(s.closes, 0u);
  EXPECT_EQ(h.sw.active(), 1u);
}

TEST(Breaker, EndpointsIgnoreProbeFrames) {
  // A PROBE landing at a live receiver must change nothing but the
  // fragments_received-adjacent counters it deliberately avoids.
  ReceiverFixture fx;
  ProbeMessage p;
  p.session = 1;
  p.seq = 1;
  fx.data.send(alf::encode_probe(p).span());
  EXPECT_TRUE(fx.delivered.empty());
  EXPECT_EQ(fx.receiver->stats().fragments_received, 0u);
  EXPECT_EQ(fx.receiver->stats().fragments_corrupt, 0u);
}

// ---- Supervisor: kill, resume, degrade -------------------------------------

/// Supervised ALF association over a duplex link whose data direction runs
/// through a FaultyPath (scheduled outages model path kills).
struct SupervisedPair {
  EventLoop loop;
  DuplexChannel channel;
  LinkPath raw_data;
  FaultyPath data;
  LinkPath feedback_tx;
  LinkPath feedback_rx;
  SessionSupervisor sup;

  std::map<std::uint64_t, ByteBuffer> sent;
  std::vector<Adu> delivered;
  bool completed = false;
  bool permanently_failed = false;
  int permanent_failures = 0;

  static LinkConfig fast_link() {
    LinkConfig cfg;
    cfg.bandwidth_bps = 100e6;
    cfg.propagation_delay = 2 * kMillisecond;
    cfg.queue_limit = 1 << 16;
    return cfg;
  }

  SupervisedPair(SupervisorConfig scfg, FaultPlan plan)
      : channel(loop, fast_link(), fast_link()),
        raw_data(channel.forward),
        data(loop, raw_data, std::move(plan)),
        feedback_tx(channel.reverse),
        feedback_rx(channel.reverse),
        sup(loop, data, feedback_tx, feedback_rx, scfg) {
    sup.set_on_adu([this](Adu&& a) { delivered.push_back(std::move(a)); });
    sup.set_on_complete([this] { completed = true; });
    sup.set_on_permanent_failure([this] {
      permanently_failed = true;
      ++permanent_failures;
    });
  }

  void send_file(std::size_t adus, std::size_t adu_bytes) {
    for (std::uint64_t i = 1; i <= adus; ++i) {
      ByteBuffer b = payload_of(adu_bytes, 1000 + i);
      ASSERT_TRUE(sup.send_adu(generic_name(i), b.span()).ok());
      sent.emplace(i, std::move(b));
    }
    sup.finish();
  }

  bool all_byte_exact() const {
    for (const Adu& a : delivered) {
      auto it = sent.find(a.name.a);
      if (it == sent.end() || !(a.payload == it->second)) return false;
    }
    return true;
  }
};

SupervisorConfig quick_supervisor(std::uint64_t seed = 42) {
  SupervisorConfig cfg;
  cfg.session.stall_timeout = 400 * kMillisecond;
  cfg.session.nack_delay = 10 * kMillisecond;
  cfg.session.nack_retry = 20 * kMillisecond;
  cfg.session.max_nacks = 30;
  cfg.seed = seed;
  cfg.restart_backoff = 50 * kMillisecond;
  return cfg;
}

FaultPlan outage_at(SimTime start, SimDuration duration) {
  FaultPlan plan;
  plan.seed = 99;
  plan.scheduled_outages.push_back({start, duration});
  return plan;
}

TEST(Supervisor, SurvivesMidTransferPathKillViaEpochResume) {
  // The outage swallows the middle of the transfer and outlasts the stall
  // watchdog: terminal for a bare pair, one restart for a supervised one.
  SupervisedPair p(quick_supervisor(),
                   outage_at(3 * kMillisecond, 800 * kMillisecond));
  p.send_file(20, 4000);
  p.loop.run();

  EXPECT_TRUE(p.completed);
  EXPECT_FALSE(p.permanently_failed);
  EXPECT_EQ(p.sup.state(), SupervisorState::kCompleted);
  EXPECT_GE(p.sup.stats().restarts, 1u);
  EXPECT_GE(p.sup.epoch(), 1u);
  EXPECT_EQ(p.delivered.size(), 20u);
  EXPECT_TRUE(p.all_byte_exact());
}

TEST(Supervisor, RestartTripsATelemetrySloWatch) {
  // The ops surface of §10.4: the supervisor's counters feed the metrics
  // registry, and a TelemetryHub SLO watch turns "a restart happened" into
  // an edge-triggered event without anyone polling supervisor state.
  SupervisedPair p(quick_supervisor(),
                   outage_at(3 * kMillisecond, 800 * kMillisecond));
  obs::MetricsRegistry reg;
  p.sup.register_metrics(reg, "supervisor");

  obs::TelemetryConfig tcfg;
  tcfg.interval = 20 * kMillisecond;
  obs::TelemetryHub hub(&p.loop, reg, tcfg);
  std::vector<obs::SloEvent> firings;
  obs::SloWatch watch;
  watch.metric = "supervisor.restarts";
  watch.threshold = 1.0;
  hub.add_watch(watch, [&](const obs::SloEvent& e) { firings.push_back(e); });
  hub.start();

  p.send_file(20, 4000);
  p.loop.run();

  ASSERT_TRUE(p.completed);
  ASSERT_GE(p.sup.stats().restarts, 1u);
  // Edge-triggered: one firing per breach, not one per sample.
  ASSERT_EQ(firings.size(), 1u);
  EXPECT_EQ(firings[0].metric, "supervisor.restarts");
  EXPECT_GE(firings[0].value, 1.0);
}

TEST(Supervisor, DeltaResumeSkipsAdusTheReceiverAlreadyClosed) {
  SupervisedPair p(quick_supervisor(),
                   outage_at(3 * kMillisecond, 800 * kMillisecond));
  p.send_file(20, 4000);
  p.loop.run();

  ASSERT_TRUE(p.completed);
  const SupervisorStats& s = p.sup.stats();
  // Some ADUs completed before the kill: the RESUME bitmap spared them.
  // Re-staging repeats per restart, so the bound is per-attempt: strictly
  // fewer than everything, every time.
  EXPECT_GT(s.adus_resume_skipped, 0u);
  EXPECT_GT(s.adus_resent, 0u);
  ASSERT_GE(s.restarts, 1u);
  EXPECT_LT(s.adus_resent, 20u * s.restarts);
  // The receiver never saw a closed id re-delivered: 20 unique ADUs.
  EXPECT_EQ(p.delivered.size(), 20u);
}

TEST(Supervisor, UnsupervisedBaselineFailsTerminallyOnTheSameStorm) {
  // The control arm of the experiment: same link, same outage, bare
  // endpoints. The receiver's watchdog abandons the session for good.
  EventLoop loop;
  DuplexChannel channel(loop, SupervisedPair::fast_link());
  LinkPath raw_data(channel.forward);
  FaultyPath data(loop, raw_data, outage_at(3 * kMillisecond, 800 * kMillisecond));
  LinkPath feedback_tx(channel.reverse);
  LinkPath feedback_rx(channel.reverse);
  SessionConfig scfg = quick_supervisor().session;
  AlfSender sender(loop, data, feedback_rx, scfg);
  AlfReceiver receiver(loop, data, feedback_tx, scfg);
  bool completed = false;
  bool failed = false;
  receiver.set_on_complete([&] { completed = true; });
  receiver.set_on_session_failed([&] { failed = true; });
  for (std::uint64_t i = 1; i <= 20; ++i) {
    ByteBuffer b = payload_of(4000, 1000 + i);
    ASSERT_TRUE(sender.send_adu(generic_name(i), b.span()).ok());
  }
  sender.finish();
  loop.run();
  EXPECT_FALSE(completed);
  EXPECT_TRUE(failed);
}

TEST(Supervisor, ResumeRetriesSurviveALossyFeedbackChannel) {
  // The feedback direction is dark for a window covering the first RESUME
  // attempts: the supervisor must retry until one lands.
  EventLoop loop;
  DuplexChannel channel(loop, SupervisedPair::fast_link());
  LinkPath raw_data(channel.forward);
  FaultyPath data(loop, raw_data, outage_at(3 * kMillisecond, 800 * kMillisecond));
  LinkPath raw_fb(channel.reverse);
  FaultPlan fb_plan;
  fb_plan.seed = 5;
  // Dark until well after the first restart (~450ms: stall 400 + backoff).
  fb_plan.scheduled_outages.push_back({0, 600 * kMillisecond});
  FaultyPath feedback(loop, raw_fb, fb_plan);

  SupervisorConfig scfg = quick_supervisor();
  scfg.max_resume_retries = 30;
  SessionSupervisor sup(loop, data, feedback, feedback, scfg);
  bool completed = false;
  sup.set_on_complete([&] { completed = true; });
  std::map<std::uint64_t, ByteBuffer> sent;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    ByteBuffer b = payload_of(3000, 2000 + i);
    ASSERT_TRUE(sup.send_adu(generic_name(i), b.span()).ok());
    sent.emplace(i, std::move(b));
  }
  sup.finish();
  loop.run();

  EXPECT_TRUE(completed);
  EXPECT_GE(sup.stats().resume_retries, 1u);
  EXPECT_GT(sup.stats().resume_frames_sent, 1u);
}

TEST(Supervisor, PermanentlyDeadPathExhaustsBudgetExactlyOnce) {
  SupervisorConfig scfg = quick_supervisor();
  scfg.max_restarts = 2;
  // Dark from almost the start, forever (100 simulated seconds).
  SupervisedPair p(scfg, outage_at(3 * kMillisecond, 100 * kSecond));
  p.send_file(10, 4000);
  p.loop.run();

  EXPECT_FALSE(p.completed);
  EXPECT_TRUE(p.permanently_failed);
  EXPECT_EQ(p.permanent_failures, 1);  // exactly once, across all cascades
  EXPECT_EQ(p.sup.state(), SupervisorState::kFailed);
  EXPECT_EQ(p.sup.stats().restarts, 2u);
  EXPECT_EQ(p.sup.stats().gave_up, 1u);
  // Offering more work to a failed session is refused, not queued forever.
  EXPECT_FALSE(p.sup.send_adu(generic_name(99), payload_of(100, 1).span()).ok());
}

TEST(Supervisor, AdusOfferedDuringRecoveryAreDeferredAndDelivered) {
  SupervisorConfig scfg = quick_supervisor();
  SupervisedPair p(scfg, outage_at(3 * kMillisecond, 800 * kMillisecond));
  for (std::uint64_t i = 1; i <= 10; ++i) {
    ByteBuffer b = payload_of(4000, 1000 + i);
    ASSERT_TRUE(p.sup.send_adu(generic_name(i), b.span()).ok());
    p.sent.emplace(i, std::move(b));
  }
  // Mid-outage (after the watchdog will have fired) the application keeps
  // producing; finish() arrives during recovery too.
  p.loop.schedule_at(500 * kMillisecond, [&] {
    for (std::uint64_t i = 11; i <= 14; ++i) {
      ByteBuffer b = payload_of(4000, 1000 + i);
      auto r = p.sup.send_adu(generic_name(i), b.span());
      EXPECT_TRUE(r.ok());
      p.sent.emplace(i, std::move(b));
    }
    p.sup.finish();
  });
  p.loop.run();

  EXPECT_TRUE(p.completed);
  EXPECT_EQ(p.delivered.size(), 14u);
  EXPECT_TRUE(p.all_byte_exact());
}

using Outcome = std::tuple<bool, bool, std::uint64_t, std::uint64_t,
                           std::uint64_t, std::uint64_t, std::size_t,
                           std::uint64_t>;

Outcome run_storm(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.payload_bitflip_rate = 0.02;
  plan.blackhole_rate = 0.05;
  plan.scheduled_outages.push_back({5 * kMillisecond, 700 * kMillisecond});
  SupervisedPair p(quick_supervisor(seed), plan);
  p.send_file(15, 3000);
  p.loop.run();
  std::uint64_t byte_hash = 1469598103934665603ull;
  for (const Adu& a : p.delivered) {
    for (std::uint8_t byte : a.payload.span()) {
      byte_hash = (byte_hash ^ byte) * 1099511628211ull;
    }
  }
  const SupervisorStats& s = p.sup.stats();
  return {p.completed, p.permanently_failed, s.restarts, s.adus_resent,
          s.resume_frames_sent, s.failures_observed, p.delivered.size(),
          byte_hash};
}

TEST(Supervisor, SeededRecoveryStormIsByteIdenticalAcrossReruns) {
  const Outcome a = run_storm(1234);
  const Outcome b = run_storm(1234);
  EXPECT_EQ(a, b);
  // And the session actually ended one way or the other.
  EXPECT_TRUE(std::get<0>(a) || std::get<1>(a));
}

}  // namespace
}  // namespace ngp::resilience
