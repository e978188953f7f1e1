// perfbench — one end-to-end benchmark of the ngp stack (see README.md).
//
//   perfbench --workload <bulk_xdr|small_lossy|session_plane> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>] [--setup-only 1]
//
// One workload per process, single-threaded, manipulation inline. The
// benchmark is the application: it generates every input from --seed before
// set-up, drives the real stack through its public APIs (AlfSender,
// AlfReceiver, Link/NetPath, sessiond), checks every delivered record against
// its own generator, and prints one JSON object as the last line of stdout.
// --trace 0 prints the end-to-end metrics; --trace 1 repeats the run with
// spans around the layer boundaries and prints the per-layer metrics.
// --setup-only 1 sets the stack up once, drains and tears it down, and
// prints only setup_s (run.py takes setup_s as a median over processes).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alf/receiver.h"
#include "alf/sender.h"
#include "alf/wire.h"
#include "buf/pool.h"
#include "checksum/checksum.h"
#include "ilp/pipeline.h"
#include "netsim/link.h"
#include "netsim/net_path.h"
#include "presentation/plan.h"
#include "sessiond/sessiond.h"
#include "simd/dispatch.h"
#include "trace.h"
#include "util/event_loop.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace ngp;
using Clock = std::chrono::steady_clock;

/// Least share of the timed wall the traced stages' self times must
/// account for; the rest is the driver's own bookkeeping between calls.
constexpr double kMinReconciled = 0.85;
/// A timed region never runs past this, whatever the program's speed.
constexpr double kMaxTimedSeconds = 100;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      have_seconds = end != v.c_str() && *end == '\0' && a.seconds >= 1 &&
                     a.seconds <= 120;
    } else if (k == "--trace") {
      have_trace = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--setup-only") {
      if (v != "0" && v != "1") return false;
      a.setup_only = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && have_seed && have_seconds &&
         have_trace;
}

// ---------------------------------------------------------------------------
// Resident memory (this process only)
// ---------------------------------------------------------------------------

/// Reads one "<key>: <n> kB" line of /proc/self/status.
std::uint64_t status_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t n = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, n) == 0 && line[n] == ':') {
      kb = std::strtoull(line + n + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One workload's fixed shape. Everything a seed changes is generated in
/// make_inputs(); everything else is here.
struct Spec {
  const char* name;
  std::size_t ints;          ///< int32 elements per record after the ordinal
  std::size_t distinct;      ///< distinct payload arrays (cycled by ordinal)
  double link_bps;
  SimDuration propagation;
  double loss;               ///< data-direction frame loss
  double load;               ///< mean offered load as a share of the link
  bool pooled;               ///< zero-copy receive path (rx pool)
  bool encrypt;
  std::size_t flows;         ///< session_plane population (0: one association)
  std::size_t warmup;        ///< untimed ADUs in the set-up
  std::size_t window;        ///< timed ADUs whose metrics are exact per seed
};

// Sizes: a record is its ordinal (int32) plus an int32 array, so its XDR
// form is 8 + 4 * ints bytes: 16384 B (bulk_xdr) and 256 B (the others).
// `window` is sized so every run on the reference host passes it well
// before --seconds ends (see README.md).
constexpr Spec kSpecs[] = {
    {"bulk_xdr", 4094, 64, 10e9, 50 * kMicrosecond, 0.0, 0.6, true, true, 0,
     1000, 100000},
    {"small_lossy", 62, 4096, 100e6, kMillisecond, 0.02, 0.6, false, false, 0,
     20000, 300000},
    {"session_plane", 62, 4096, 10e9, 10 * kMicrosecond, 0.0, 0.6, false, false,
     120000, 50000, 400000},
};

constexpr std::size_t kMtu = 1500;
constexpr std::size_t kFragCapacity = kMtu - alf::DataFragment::kHeaderSize;
constexpr std::size_t kPeerTag = 4;  ///< session_plane source-address prefix
constexpr std::size_t kFlowsPerPeer = 30000;

std::size_t record_bytes(const Spec& s) { return 8 + 4 * s.ints; }

std::size_t frames_per_adu(const Spec& s) {
  return (record_bytes(s) + kFragCapacity - 1) / kFragCapacity;
}

/// Bytes one ADU occupies on the data link (headers included).
std::size_t link_bytes_per_adu(const Spec& s) {
  const std::size_t tag = s.flows > 0 ? kPeerTag : 0;
  return record_bytes(s) + frames_per_adu(s) * (alf::DataFragment::kHeaderSize + tag);
}

/// Time the data link takes to serialize one ADU's frames, each frame timed
/// as the link times it.
SimDuration serialization(const Spec& s) {
  SimDuration t = 0;
  const std::size_t tag = s.flows > 0 ? kPeerTag : 0;
  for (std::size_t off = 0; off < record_bytes(s); off += kFragCapacity) {
    const std::size_t len = std::min(kFragCapacity, record_bytes(s) - off);
    t += transmission_time(len + alf::DataFragment::kHeaderSize + tag, s.link_bps);
  }
  return t;
}

RecordSchema record_schema() {
  return RecordSchema{"perfbench", {FieldType::kInt32, FieldType::kInt32Array}};
}

using PlanPtr = std::shared_ptr<const presentation::PresentationPlan>;

/// The stack's plan, from the process-wide cache. The first call compiles
/// and caches it, so it is called inside the timed set-up.
PlanPtr stack_plan() {
  return presentation::cached_plan(record_schema(), TransferSyntax::kXdr);
}

/// Everything generated from the seed, before set-up.
struct Inputs {
  std::vector<Record> records;    ///< field 0 (ordinal) is patched per send
  std::vector<ByteBuffer> wire;   ///< XDR of each record with ordinal 0
  std::vector<SimDuration> gaps;  ///< Poisson inter-arrival gaps, cycled
  ChaChaKey key{};
  std::uint64_t link_seed = 0;
  std::uint64_t recovery_seed = 0;
  std::uint64_t flow_seed = 0;
};

constexpr std::size_t kGaps = 1 << 16;

Inputs make_inputs(const Spec& s, std::uint64_t seed) {
  Inputs in;
  // The generator's own encoder: compiled apart from the stack's plan cache.
  const presentation::PresentationPlan gen =
      presentation::compile_plan(record_schema(), TransferSyntax::kXdr);
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5bd1e995);
  for (std::size_t k = 0; k < s.distinct; ++k) {
    std::vector<std::int32_t> v(s.ints);
    for (auto& x : v) x = static_cast<std::int32_t>(rng.next());
    Record r;
    r.emplace_back(std::int32_t{0});
    r.emplace_back(std::move(v));
    in.wire.push_back(presentation::plan_encode(gen, r).value());
    in.records.push_back(std::move(r));
  }
  const double mean_gap =
      static_cast<double>(transmission_time(link_bytes_per_adu(s), s.link_bps)) /
      s.load;
  in.gaps.resize(kGaps);
  for (auto& g : in.gaps) {
    g = std::max<SimDuration>(1, std::llround(rng.exponential(mean_gap)));
  }
  rng.fill(MutableBytes{in.key.key.data(), in.key.key.size()});
  rng.fill(MutableBytes{in.key.nonce.data(), in.key.nonce.size()});
  in.link_seed = rng.next();
  in.recovery_seed = rng.next() | 1;
  in.flow_seed = rng.next();
  return in;
}

alf::SessionConfig session_config(const Spec& s, const Inputs& in) {
  alf::SessionConfig c;
  c.syntax = TransferSyntax::kXdr;
  c.checksum = ChecksumKind::kInternet;
  c.encrypt = s.encrypt;
  c.key = in.key;
  c.recovery_seed = in.recovery_seed;
  if (s.flows > 0) {
    // Receive-only flows stay open for the whole run with no sender to
    // report to: no heartbeat, no stall watchdog.
    c.progress_interval = 3600 * kSecond;
    c.stall_timeout = 0;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Delivery bookkeeping and the correctness checks
// ---------------------------------------------------------------------------

/// Per-ADU send records in a ring indexed by ordinal. A slot is claimed at
/// send and released at delivery, which is how "every name is delivered
/// exactly once" is checked without a set of every name ever sent.
class Book {
 public:
  struct Slot {
    SimTime sent = 0;
    std::uint32_t adu_id = 0;
    std::uint32_t tag = 0;  ///< ordinal + 1 while outstanding, else 0
  };
  Book() : slots_(kSlots) {}
  bool claim(std::uint64_t ord, SimTime sent, std::uint32_t adu_id) {
    Slot& s = slots_[ord % kSlots];
    if (s.tag != 0) return false;  // ring wrapped onto an undelivered ADU
    s = Slot{sent, adu_id, static_cast<std::uint32_t>(ord + 1)};
    ++outstanding_;
    return true;
  }
  bool release(std::uint64_t ord, Slot& out) {
    Slot& s = slots_[ord % kSlots];
    if (s.tag != static_cast<std::uint32_t>(ord + 1)) return false;
    out = s;
    s.tag = 0;
    --outstanding_;
    return true;
  }
  std::uint64_t outstanding() const { return outstanding_; }

 private:
  static constexpr std::size_t kSlots = 1 << 18;
  std::vector<Slot> slots_;
  std::uint64_t outstanding_ = 0;
};

/// The application: consumes each delivered ADU (flatten, decode, verify)
/// and keeps the checks and the exact-window statistics.
class App {
 public:
  App(const Spec& s, const Inputs& in, Tracer* tr)
      : spec_(s), in_(in), tr_(tr), serialization_(serialization(s)),
        min_latency_(serialization_ + s.propagation), link_budget_(serialization_),
        scratch_(record_bytes(s)) {
    latencies_.reserve(s.window);
  }

  /// The stack's presentation plan, which the application decodes with.
  void set_plan(const presentation::PresentationPlan* plan) { plan_ = plan; }

  /// Called by the driver at every send.
  bool on_send(std::uint64_t ord, SimTime now, std::uint32_t adu_id) {
    if (!book_.claim(ord, now, adu_id)) return fail("in-flight ring overflow");
    return true;
  }

  /// Opens the exact window at the first timed ordinal.
  void open_window(std::uint64_t first) { window_lo_ = first; }
  void set_on_window_complete(std::function<void()> fn) {
    on_window_complete_ = std::move(fn);
  }
  void set_release(std::function<void(std::uint32_t)> fn) { release_ = std::move(fn); }

  void consume_flat(const Adu& a, SimTime now) {
    Span span(tr_, kApp);
    cost_.charge_operation(a.payload.size());
    verify(a.name, a.payload.span(), now);
  }
  void consume_chain(const AduChain& c, SimTime now) {
    Span span(tr_, kApp);
    const std::size_t n = c.payload.size();
    cost_.charge_operation(n);
    if (n != scratch_.size()) {
      fail("delivered chain has the wrong size");
      return;
    }
    // The application's placement copy out of the gather list.
    c.payload.copy_out(scratch_.span());
    cost_.charge_pass(n, /*stores=*/true);
    verify(c.name, scratch_.span(), now);
  }

  bool ok() const { return ok_; }
  const std::string& why() const { return why_; }
  bool fail(const char* why) {
    if (ok_) why_ = why;
    ok_ = false;
    return false;
  }
  std::uint64_t outstanding() const { return book_.outstanding(); }
  std::uint64_t delivered() const { return delivered_; }
  bool window_complete() const { return latencies_.size() == spec_.window; }
  std::vector<SimDuration>& latencies() { return latencies_; }
  const obs::CostAccount& cost() const { return cost_; }

 private:
  void verify(const AduName& name, ConstBytes host_order, SimTime now) {
    Result<Record> rec =
        presentation::plan_decode_host_order(*plan_, host_order, &cost_);
    const std::uint64_t ord = name.a;
    if (!rec.ok() || rec->size() != 2) {
      fail("record does not decode");
      return;
    }
    const auto* o = std::get_if<std::int32_t>(&(*rec)[0]);
    const auto* v = std::get_if<std::vector<std::int32_t>>(&(*rec)[1]);
    const auto& want =
        std::get<std::vector<std::int32_t>>(in_.records[ord % spec_.distinct][1]);
    if (o == nullptr || v == nullptr || static_cast<std::uint64_t>(*o) != ord ||
        v->size() != want.size() ||
        std::memcmp(v->data(), want.data(), want.size() * sizeof(std::int32_t)) != 0) {
      fail("record differs from the generator");
      return;
    }
    Book::Slot slot;
    if (!book_.release(ord, slot)) {
      fail("ADU delivered twice or never sent");
      return;
    }
    const SimDuration lat = now - slot.sent;
    if (lat < min_latency_) fail("sim latency below serialization + propagation");
    // The link serializes one frame at a time, so the ADUs delivered in any
    // span of sim time took no longer than the span to serialize, give or
    // take the one ADU straddling its start: a token bucket one ADU deep,
    // refilled at the sim clock's rate, never runs dry.
    link_budget_ = std::min(serialization_, link_budget_ + (now - last_delivery_));
    last_delivery_ = now;
    link_budget_ -= serialization_;
    if (link_budget_ < 0) fail("delivered bytes per sim-second exceed the link rate");
    ++delivered_;
    if (release_) release_(slot.adu_id);
    if (ord >= window_lo_ && ord < window_lo_ + spec_.window) {
      latencies_.push_back(lat);
      if (window_complete() && on_window_complete_) on_window_complete_();
    }
  }

  const Spec& spec_;
  const Inputs& in_;
  Tracer* tr_;
  const presentation::PresentationPlan* plan_ = nullptr;
  SimDuration serialization_;
  SimDuration min_latency_;
  SimDuration link_budget_;
  SimTime last_delivery_ = 0;
  ByteBuffer scratch_;
  Book book_;
  obs::CostAccount cost_;
  std::vector<SimDuration> latencies_;
  std::uint64_t window_lo_ = ~std::uint64_t{0} >> 1;
  std::uint64_t delivered_ = 0;
  std::function<void()> on_window_complete_;
  std::function<void(std::uint32_t)> release_;
  bool ok_ = true;
  std::string why_;
};

// ---------------------------------------------------------------------------
// Counters at layer boundaries, read from public stats
// ---------------------------------------------------------------------------

struct Counters {
  obs::CostAccount sender, link, reassembly, manip, app;
  std::uint64_t adus_sent = 0, fragments_sent = 0, adus_retransmitted = 0;
  std::uint64_t nacks_sent = 0, adus_out_of_order = 0;
  std::uint64_t frames_delivered = 0, dropped_loss = 0;
  std::uint64_t zero_copy = 0, pool_copied = 0;
  std::uint64_t adus_delivered = 0, payload_bytes = 0;
  std::uint64_t lookups = 0, hits = 0;
};

obs::CostAccount minus(const obs::CostAccount& a, const obs::CostAccount& b) {
  obs::CostAccount d;
  d.operations = a.operations - b.operations;
  d.bytes_touched = a.bytes_touched - b.bytes_touched;
  d.words_touched = a.words_touched - b.words_touched;
  d.memory_passes = a.memory_passes - b.memory_passes;
  d.word_loads = a.word_loads - b.word_loads;
  d.word_stores = a.word_stores - b.word_stores;
  return d;
}

Counters minus(const Counters& a, const Counters& b) {
  Counters d;
  d.sender = minus(a.sender, b.sender);
  d.link = minus(a.link, b.link);
  d.reassembly = minus(a.reassembly, b.reassembly);
  d.manip = minus(a.manip, b.manip);
  d.app = minus(a.app, b.app);
  d.adus_sent = a.adus_sent - b.adus_sent;
  d.fragments_sent = a.fragments_sent - b.fragments_sent;
  d.adus_retransmitted = a.adus_retransmitted - b.adus_retransmitted;
  d.nacks_sent = a.nacks_sent - b.nacks_sent;
  d.adus_out_of_order = a.adus_out_of_order - b.adus_out_of_order;
  d.frames_delivered = a.frames_delivered - b.frames_delivered;
  d.dropped_loss = a.dropped_loss - b.dropped_loss;
  d.zero_copy = a.zero_copy - b.zero_copy;
  d.pool_copied = a.pool_copied - b.pool_copied;
  d.adus_delivered = a.adus_delivered - b.adus_delivered;
  d.payload_bytes = a.payload_bytes - b.payload_bytes;
  d.lookups = a.lookups - b.lookups;
  d.hits = a.hits - b.hits;
  return d;
}

void add_receiver(Counters& c, const alf::AlfReceiver& rx) {
  const alf::ReceiverStats& s = rx.stats();
  c.reassembly.merge(rx.reassembly_cost());
  c.manip.merge(rx.manipulation_cost());
  c.nacks_sent += s.nacks_sent;
  c.adus_out_of_order += s.adus_delivered_out_of_order;
  c.zero_copy += s.fragments_zero_copy;
  c.pool_copied += s.fragments_pool_copied;
  c.adus_delivered += s.adus_delivered;
  c.payload_bytes += s.payload_bytes_delivered;
}

void add_link(Counters& c, const Link& fwd, const Link& rev) {
  c.link.merge(fwd.transfer_cost());
  c.link.merge(rev.transfer_cost());
  c.frames_delivered += fwd.stats().frames_delivered;
  c.dropped_loss += fwd.stats().dropped_loss;
}

/// Receiver-side failures every workload must show none of.
const char* receiver_fault(const alf::ReceiverStats& s) {
  if (s.adus_abandoned != 0) return "receiver abandoned an ADU";
  if (s.adus_checksum_failed != 0) return "receiver checksum failure";
  if (s.adus_shed != 0 || s.reassembly_evictions != 0) return "receiver shed an ADU";
  if (s.fragments_corrupt != 0) return "receiver saw a corrupt fragment";
  return nullptr;
}

const char* link_fault(const Link& l) {
  if (l.stats().dropped_queue != 0) return "link refused a frame (queue full)";
  if (l.stats().dropped_oversize != 0) return "link refused an oversize frame";
  return nullptr;
}

// ---------------------------------------------------------------------------
// The stacks under test
// ---------------------------------------------------------------------------

/// A NetPath decorator owned by the benchmark (traced run only): spans
/// around send() and around the delivery handler the endpoint installs.
class TracedPath final : public NetPath {
 public:
  TracedPath(NetPath& inner, Tracer* tr, SpanId handler_span)
      : inner_(inner), tr_(tr), handler_span_(handler_span) {}
  bool send(ConstBytes frame) override {
    Span span(tr_, kLinkSend);
    return inner_.send(frame);
  }
  void set_handler(FrameHandler h) override {
    if (!h) {
      inner_.set_handler(nullptr);
      return;
    }
    inner_.set_handler([this, h = std::move(h)](ConstBytes frame) {
      Span span(tr_, handler_span_);
      h(frame);
    });
  }
  std::size_t max_frame_size() const override { return inner_.max_frame_size(); }

 private:
  NetPath& inner_;
  Tracer* tr_;
  SpanId handler_span_;
};

LinkConfig link_config(const Spec& s, std::uint64_t seed) {
  LinkConfig lc;
  lc.bandwidth_bps = s.link_bps;
  lc.propagation_delay = s.propagation;
  lc.mtu = kMtu;
  lc.queue_limit = 1 << 20;
  lc.seed = seed;
  return lc;
}

/// One association: sender -> data link -> receiver, feedback link back.
/// Member order is construction order; the endpoints go first at teardown.
struct AlfRig {
  AlfRig(const Spec& s, const Inputs& in, const PlanPtr& plan, buf::BufferPool* pool,
         Tracer* tr)
      : ch(loop, link_config(s, in.link_seed), link_config(s, in.link_seed ^ 1)),
        data_link(ch.forward),
        feedback_link(ch.reverse),
        data_traced(data_link, tr, kRxFrame),
        feedback_traced(feedback_link, tr, kFeedback),
        sender(loop, path(data_traced, data_link, tr),
               path(feedback_traced, feedback_link, tr), session_config(s, in)),
        receiver(loop, path(data_traced, data_link, tr),
                 path(feedback_traced, feedback_link, tr), session_config(s, in)) {
    if (s.loss > 0) ch.forward.set_loss_rate(s.loss);
    receiver.set_presentation(plan);
    if (pool != nullptr) {
      ch.forward.set_rx_pool(pool);
      receiver.set_rx_pool(pool);
    }
  }
  static NetPath& path(NetPath& traced, NetPath& plain, Tracer* tr) {
    return tr != nullptr ? traced : plain;
  }

  Counters counters(const App& app) const {
    Counters c;
    c.sender = sender.manipulation_cost();
    c.adus_sent = sender.stats().adus_sent;
    c.fragments_sent = sender.stats().fragments_sent;
    c.adus_retransmitted = sender.stats().adus_retransmitted;
    c.app = app.cost();
    add_receiver(c, receiver);
    add_link(c, ch.forward, ch.reverse);
    return c;
  }

  EventLoop loop;
  DuplexChannel ch;
  LinkPath data_link;
  LinkPath feedback_link;
  TracedPath data_traced;
  TracedPath feedback_traced;
  alf::AlfSender sender;
  alf::AlfReceiver receiver;
};

/// session_plane: one shared ingress link into a sessiond dispatcher with
/// receive-only flows created on first frame. Frames on the ingress link
/// carry a 4-byte source address (the peer) that the ingress handler strips
/// before dispatch, as a network layer below ALF would.
struct PlaneRig {
  PlaneRig(const Spec& s, const Inputs& in, const PlanPtr& plan, App& app, Tracer* tr)
      : ch(loop, link_config(s, in.link_seed), link_config(s, in.link_seed ^ 1)),
        feedback(ch.reverse),
        daemon(loop, daemon_config(s)) {
    flows.reserve(s.flows);
    sessiond::ReceiverFactoryOptions fo;
    fo.presentation = plan;
    fo.configure = [this, &app](const sessiond::FlowId&, alf::AlfReceiver& rx) {
      flows.push_back(&rx);
      rx.set_on_adu([this, &app](Adu&& a) { app.consume_flat(a, loop.now()); });
    };
    daemon.set_factory(
        sessiond::alf_receiver_factory(loop, feedback, session_config(s, in), fo));
    ch.forward.set_handler([this, tr](ConstBytes frame) {
      if (frame.size() < kPeerTag) return;
      Span span(tr, admitting ? kCreate : kDispatch);
      daemon.dispatcher().dispatch(load_u32_be(frame.data()), frame.subspan(kPeerTag));
    });
  }
  static sessiond::Sessiond::Config daemon_config(const Spec& s) {
    sessiond::Sessiond::Config c;
    c.table.shards = 64;
    c.table.max_sessions = s.flows + 16;
    return c;
  }

  Counters counters(const App& app, std::uint64_t injected) {
    Counters c;
    c.app = app.cost();
    c.adus_sent = injected;
    c.fragments_sent = injected;
    for (const alf::AlfReceiver* rx : flows) add_receiver(c, *rx);
    add_link(c, ch.forward, ch.reverse);
    const sessiond::SessionTableStats t = daemon.table().stats();
    c.lookups = t.lookups;
    c.hits = t.hits;
    return c;
  }

  EventLoop loop;
  DuplexChannel ch;
  LinkPath feedback;
  sessiond::Sessiond daemon;
  std::vector<alf::AlfReceiver*> flows;
  bool admitting = true;
};

/// session_plane's generated frames: [peer u32][ALF DATA frame], one
/// single-fragment record each, encoded in batches between timed spells.
class FrameSource {
 public:
  FrameSource(const Spec& s, const Inputs& in)
      : spec_(s), in_(in), rng_(in.flow_seed), next_adu_(s.flows, 1),
        frame_len_(kPeerTag + alf::DataFragment::kHeaderSize + record_bytes(s)),
        arena_(kBatch * frame_len_, 0xA5), payload_(record_bytes(s)) {}

  /// Encodes the next `n` (<= kBatch) frames; flow < 0 picks uniformly at
  /// random, otherwise frames go to flows first_flow, first_flow + 1, ...
  void fill(std::size_t n, std::uint64_t first_ord, long first_flow) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t ord = first_ord + i;
      const std::size_t flow =
          first_flow < 0 ? static_cast<std::size_t>(rng_.uniform(spec_.flows))
                         : static_cast<std::size_t>(first_flow) + i;
      std::memcpy(payload_.data(), in_.wire[ord % spec_.distinct].data(),
                  payload_.size());
      store_u32_be(payload_.data(), static_cast<std::uint32_t>(ord));
      alf::DataFragment f;
      f.session = static_cast<std::uint16_t>(1 + flow % kFlowsPerPeer);
      f.adu_id = next_adu_[flow]++;
      f.name = generic_name(ord);
      f.syntax = TransferSyntax::kXdr;
      f.checksum_kind = ChecksumKind::kInternet;
      f.adu_len = static_cast<std::uint32_t>(payload_.size());
      f.adu_checksum = compute_checksum(ChecksumKind::kInternet, payload_.span());
      f.payload = payload_.span();
      const ByteBuffer wire = alf::encode_fragment(f);
      std::uint8_t* dst = arena_.data() + i * frame_len_;
      store_u32_be(dst, static_cast<std::uint32_t>(1 + flow / kFlowsPerPeer));
      std::memcpy(dst + kPeerTag, wire.data(), wire.size());
    }
  }
  ConstBytes frame(std::size_t i) const {
    return ConstBytes{arena_.data() + i * frame_len_, frame_len_};
  }
  static constexpr std::size_t kBatch = 1 << 16;

 private:
  const Spec& spec_;
  const Inputs& in_;
  Rng rng_;
  std::vector<std::uint32_t> next_adu_;
  std::size_t frame_len_;
  std::vector<std::uint8_t> arena_;
  ByteBuffer payload_;
};

// ---------------------------------------------------------------------------
// Replayed calls on the run's own inputs (traced run only)
// ---------------------------------------------------------------------------

volatile std::uint64_t g_sink = 0;

/// Median over 5 trials of ns per unit; each trial repeats `body` (which
/// returns the units it processed) until 20 ms have passed. `prepare` runs
/// untimed before each call.
template <typename Prepare, typename Body>
double ns_per_unit(Prepare prepare, Body body) {
  std::vector<double> trials;
  for (int t = 0; t < 5; ++t) {
    double ns = 0, units = 0;
    while (ns < 20e6) {
      prepare();
      const auto t0 = Clock::now();
      units += body();
      ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    }
    trials.push_back(ns / units);
  }
  std::sort(trials.begin(), trials.end());
  return trials[trials.size() / 2];
}

struct Replays {
  double encode_ns_per_byte = 0, decode_ns_per_byte = 0, manip_ns_per_byte = 0;
  double wire_encode_ns = 0, wire_decode_ns = 0;
  bool ok = true;
};

Replays run_replays(const Spec& s, const Inputs& in,
                    const presentation::PresentationPlan& plan) {
  Replays r;
  std::vector<Record> records = in.records;
  const double wire_total = static_cast<double>(record_bytes(s) * records.size());

  r.encode_ns_per_byte = ns_per_unit([] {}, [&] {
    for (const Record& rec : records) {
      g_sink = g_sink + presentation::plan_encode(plan, rec).value().size();
    }
    return wire_total;
  });
  r.decode_ns_per_byte = ns_per_unit([] {}, [&] {
    for (const ByteBuffer& w : in.wire) {
      g_sink = g_sink + presentation::plan_decode(plan, w.span()).value().size();
    }
    return wire_total;
  });

  // The receiver's stage-2 plan shape over the same payloads: checksum
  // verify + fused byteswap, plus ChaCha20 decrypt when the session
  // encrypts, over pool chains laid out as the link deposits fragments
  // (bulk_xdr) or over flat buffers (the flat receive path).
  std::vector<ManipulationPlan> plans(in.wire.size());
  std::vector<ByteBuffer> pristine;
  for (std::size_t k = 0; k < in.wire.size(); ++k) {
    ManipulationPlan& m = plans[k];
    m.checksum_kind = ChecksumKind::kInternet;
    m.expected_checksum = compute_checksum(ChecksumKind::kInternet, in.wire[k].span());
    m.present = plan.wire_stage();
    ByteBuffer b(in.wire[k].span());
    if (s.encrypt) {
      m.decrypt = true;
      m.key = in.key;
      store_u32_be(m.key.nonce.data() + 8, static_cast<std::uint32_t>(k + 1));
      simd::kernels().chacha20_xor(m.key, 0, b.span());
    }
    pristine.push_back(std::move(b));
  }
  if (s.pooled) {
    buf::BufferPool pool;
    {
      std::vector<buf::BufChain> chains(pristine.size());
      for (std::size_t k = 0; k < pristine.size(); ++k) {
        for (std::size_t off = 0; off < pristine[k].size(); off += kFragCapacity) {
          const std::size_t len = std::min(kFragCapacity, pristine[k].size() - off);
          chains[k].append(buf::Slice{pool.alloc(kMtu), alf::DataFragment::kHeaderSize, len});
        }
      }
      const auto restore = [&] {
        for (std::size_t k = 0; k < chains.size(); ++k) {
          std::size_t off = 0;
          chains[k].for_each_mutable([&](MutableBytes seg) {
            std::memcpy(seg.data(), pristine[k].data() + off, seg.size());
            off += seg.size();
          });
        }
      };
      r.manip_ns_per_byte = ns_per_unit(restore, [&] {
        for (std::size_t k = 0; k < chains.size(); ++k) {
          r.ok = run_manipulation_chain(plans[k], chains[k], nullptr) && r.ok;
        }
        return wire_total;
      });
    }
  } else {
    std::vector<ByteBuffer> work = pristine;
    const auto restore = [&] {
      for (std::size_t k = 0; k < work.size(); ++k) {
        std::memcpy(work[k].data(), pristine[k].data(), work[k].size());
      }
    };
    r.manip_ns_per_byte = ns_per_unit(restore, [&] {
      for (std::size_t k = 0; k < work.size(); ++k) {
        r.ok = run_manipulation(plans[k], work[k].span(), nullptr) && r.ok;
      }
      return wire_total;
    });
  }

  // Wire header encode/decode over every fragment of the run's records.
  std::vector<alf::DataFragment> frags;
  for (std::size_t k = 0; k < in.wire.size(); ++k) {
    for (std::size_t off = 0; off < in.wire[k].size(); off += kFragCapacity) {
      alf::DataFragment f;
      f.session = 1;
      f.adu_id = static_cast<std::uint32_t>(k + 1);
      f.name = generic_name(k);
      f.syntax = TransferSyntax::kXdr;
      f.checksum_kind = ChecksumKind::kInternet;
      f.adu_len = static_cast<std::uint32_t>(in.wire[k].size());
      f.frag_off = static_cast<std::uint32_t>(off);
      f.adu_checksum = plans[k].expected_checksum;
      f.payload = in.wire[k].subspan(off, std::min(kFragCapacity, in.wire[k].size() - off));
      frags.push_back(f);
    }
  }
  std::vector<ByteBuffer> frames;
  for (const alf::DataFragment& f : frags) frames.push_back(alf::encode_fragment(f));
  r.wire_encode_ns = ns_per_unit([] {}, [&] {
    for (const alf::DataFragment& f : frags) g_sink = g_sink + alf::encode_fragment(f).size();
    return static_cast<double>(frags.size());
  });
  r.wire_decode_ns = ns_per_unit([] {}, [&] {
    for (const ByteBuffer& fr : frames) {
      const auto m = alf::decode_message(fr.span());
      r.ok = m.has_value() && r.ok;
      g_sink = g_sink + (m ? m->data.adu_id : 0);
    }
    return static_cast<double>(frames.size());
  });
  return r;
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  std::string why;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
};

/// Delivery rate over consecutive spells of the timed region. Rates are
/// reported as the 10th percentile of the spells: the rate the stack
/// sustains in the slowest tenth of the run. On a shared host the process
/// alternates, on a scale of seconds, between a contended speed that recurs
/// in nearly every run and faster spells that some runs lack altogether;
/// the median mixes the two in a different proportion in every run, the
/// 10th percentile reads the recurring one (see README.md).
class Spells {
 public:
  static constexpr double kSpellSeconds = 0.1;
  static constexpr double kQuantile = 0.1;
  void tick(double elapsed, std::uint64_t delivered) {
    if (elapsed - at_ < kSpellSeconds) return;
    rates_.push_back(static_cast<double>(delivered - delivered_at_) / (elapsed - at_));
    at_ = elapsed;
    delivered_at_ = delivered;
  }
  void start(std::uint64_t delivered) { delivered_at_ = delivered; }
  double rate() const {
    if (rates_.empty()) return 0;
    std::vector<double> v = rates_;
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(kQuantile * static_cast<double>(v.size() - 1))];
  }
  const std::vector<double>& rates() const { return rates_; }

 private:
  double at_ = 0;
  std::uint64_t delivered_at_ = 0;
  std::vector<double> rates_;
};

/// What every workload driver measures; turned into metrics by report().
struct Measured {
  Spells spells;
  double setup_s = 0;
  double timed_s = 0;
  std::uint64_t timed_adus = 0;
  SimDuration timed_sim = 0;
  std::uint64_t base_kb = 0, hwm_kb = 0;
  Counters window;  ///< counters over the exact window
  std::uint64_t events = 0;
  double bytes_per_session = 0;
  std::uint64_t occupancy_peak = 0;
  std::uint64_t slab_allocs = 0, segments_live_end = 0;
};

double quantile_ms(std::vector<SimDuration> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(v.size() - 1, static_cast<std::size_t>(q * v.size()));
  return static_cast<double>(v[i]) / kMillisecond;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

void report(const Spec& s, const Args& a, const Measured& m, App& app,
            const Tracer* tr, const Replays& rp, Outcome& out) {
  const Counters& w = m.window;
  const auto bytes_of = [](const obs::CostAccount& c) {
    return static_cast<double>((c.word_loads + c.word_stores) * 8);
  };
  const double payload = static_cast<double>(w.payload_bytes);
  const double host_bytes = bytes_of(w.sender) + bytes_of(w.link) +
                            bytes_of(w.reassembly) + bytes_of(w.manip) + bytes_of(w.app);
  if (!a.trace) {
    out.metrics = {
        {"setup_s", m.setup_s, "s"},
        {"goodput_mbps", m.spells.rate() * static_cast<double>(record_bytes(s)) * 8 / 1e6,
         "Mb/s"},
        {"adus_per_s", m.spells.rate(), "1/s"},
        {"sim_latency_p50_ms", quantile_ms(app.latencies(), 0.50), "ms"},
        {"sim_latency_p99_ms", quantile_ms(app.latencies(), 0.99), "ms"},
        {"mem_peak_mb", static_cast<double>(m.hwm_kb - std::min(m.hwm_kb, m.base_kb)) / 1024.0, "MiB"},
        {"host_mem_bytes_per_byte", ratio(host_bytes, payload), "B/B"},
    };
    return;
  }
  const double wall_ns = m.timed_s * 1e9;
  const auto L = [tr](SpanId id) -> const Tracer::Layer& { return tr->layer(id); };
  const auto share = [&](SpanId id) { return static_cast<double>(L(id).self_ns) / wall_ns; };
  const double reconciled =
      static_cast<double>(tr->self_ns_total_except(kCreate)) / wall_ns;
  const double first_tx =
      ratio(static_cast<double>(w.adus_sent * frames_per_adu(s)),
            static_cast<double>(w.fragments_sent));
  out.metrics = {
      {"alf.send_record.ns_p50", L(kSendRecord).inclusive.quantile(0.5), "ns"},
      {"alf.send_record.ns_p99", L(kSendRecord).inclusive.quantile(0.99), "ns"},
      {"alf.send_record.share", share(kSendRecord), "fraction"},
      {"netsim.link_send.ns_p50", L(kLinkSend).inclusive.quantile(0.5), "ns"},
      {"netsim.link_send.share", share(kLinkSend), "fraction"},
      {"alf.rx_frame.self_ns_p50", L(kRxFrame).self.quantile(0.5), "ns"},
      {"alf.rx_frame.self_ns_p99", L(kRxFrame).self.quantile(0.99), "ns"},
      {"alf.rx_frame.share", share(kRxFrame), "fraction"},
      {"alf.feedback.ns_p50", L(kFeedback).inclusive.quantile(0.5), "ns"},
      {"alf.feedback.share", share(kFeedback), "fraction"},
      {"util.event_loop.self_share", share(kEventLoop), "fraction"},
      {"util.event_loop.events_per_adu",
       ratio(static_cast<double>(m.events), static_cast<double>(m.timed_adus)), "events/ADU"},
      {"app.consume.ns_p50", L(kApp).inclusive.quantile(0.5), "ns"},
      {"app.consume.share", share(kApp), "fraction"},
      {"sessiond.dispatch.ns_p50", L(kDispatch).inclusive.quantile(0.5), "ns"},
      {"sessiond.dispatch.ns_p99", L(kDispatch).inclusive.quantile(0.99), "ns"},
      {"sessiond.dispatch.share", share(kDispatch), "fraction"},
      {"sessiond.create.ns_p50", L(kCreate).inclusive.quantile(0.5), "ns"},
      {"presentation.plan_encode.ns_per_byte", rp.encode_ns_per_byte, "ns/B"},
      {"presentation.plan_decode.ns_per_byte", rp.decode_ns_per_byte, "ns/B"},
      {"ilp.manipulation.ns_per_byte", rp.manip_ns_per_byte, "ns/B"},
      {"alf.wire.encode_fragment.ns_per_frame", rp.wire_encode_ns, "ns/frame"},
      {"alf.wire.decode.ns_per_frame", rp.wire_decode_ns, "ns/frame"},
      {"alf.fragments_sent", static_cast<double>(w.fragments_sent), "count"},
      {"alf.adus_retransmitted", static_cast<double>(w.adus_retransmitted), "count"},
      {"alf.nacks_sent", static_cast<double>(w.nacks_sent), "count"},
      {"alf.adus_out_of_order", static_cast<double>(w.adus_out_of_order), "count"},
      {"alf.first_tx_ratio", first_tx, "fraction"},
      {"netsim.frames_delivered", static_cast<double>(w.frames_delivered), "count"},
      {"netsim.dropped_loss", static_cast<double>(w.dropped_loss), "count"},
      {"buf.zero_copy_ratio",
       ratio(static_cast<double>(w.zero_copy), static_cast<double>(w.zero_copy + w.pool_copied)),
       "fraction"},
      {"buf.pool.slab_allocs", static_cast<double>(m.slab_allocs), "count"},
      {"buf.pool.segments_live_end", static_cast<double>(m.segments_live_end), "count"},
      {"sessiond.table.hit_ratio",
       ratio(static_cast<double>(w.hits), static_cast<double>(w.lookups)), "fraction"},
      {"sessiond.occupancy_peak", static_cast<double>(m.occupancy_peak), "count"},
      {"sessiond.bytes_per_session", m.bytes_per_session, "B"},
      {"ledger.sender_manip.bytes_per_byte", ratio(bytes_of(w.sender), payload), "B/B"},
      {"ledger.link.bytes_per_byte", ratio(bytes_of(w.link), payload), "B/B"},
      {"ledger.rx_reassembly.bytes_per_byte", ratio(bytes_of(w.reassembly), payload), "B/B"},
      {"ledger.rx_manip.bytes_per_byte", ratio(bytes_of(w.manip), payload), "B/B"},
      {"ledger.app.bytes_per_byte", ratio(bytes_of(w.app), payload), "B/B"},
      {"ledger.memory_passes_per_adu",
       ratio(static_cast<double>(w.sender.memory_passes + w.link.memory_passes +
                                 w.reassembly.memory_passes + w.manip.memory_passes +
                                 w.app.memory_passes),
             static_cast<double>(w.adus_delivered)),
       "passes/ADU"},
      {"trace.reconciled_share", reconciled, "fraction"},
  };
  // Stage self times must account for the timed wall: spans nest inside
  // it, so the sum cannot exceed it, and what they miss is the driver's
  // own bookkeeping between calls.
  if (reconciled > 1.0 || reconciled < kMinReconciled) {
    out.correct = false;
    out.why = "trace self times do not reconcile with the timed wall";
  }
  if (!rp.ok) {
    out.correct = false;
    out.why = "a replayed manipulation or decode failed";
  }
}


/// Runs the event loop to `until` (span: util.event_loop).
std::size_t advance(EventLoop& loop, SimTime until, Tracer* tr) {
  Span span(tr, kEventLoop);
  return loop.run_until(until);
}

/// Lets the ADUs in flight land after a burst of sends.
SimDuration settle_time(const Spec& s) { return 2 * s.propagation + kMillisecond; }

/// Runs the loop in 1 ms steps until every sent ADU is delivered or a
/// minute of sim time passes (then the rest count as failed).
void drain(EventLoop& loop, const App& app, Tracer* tr, Measured& m) {
  const SimTime deadline = loop.now() + 60 * kSecond;
  while (app.outstanding() > 0 && loop.now() < deadline) {
    m.events += advance(loop, loop.now() + kMillisecond, tr);
  }
}

void finish_checks(const Spec& s, const Args& a, Measured& m, App& app, Outcome& out) {
  if (!app.window_complete()) app.fail("timed region ended before the exact window");
  out.failed = app.outstanding();
  if (!app.ok()) {
    out.correct = false;
    out.why = app.why();
  }
  std::fprintf(stderr,
               "perfbench %s seed=%llu trace=%d: setup_s=%.4f timed=%.3fs "
               "adus=%llu sim=%.3fs window=%zu\n",
               s.name, static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
               m.setup_s, m.timed_s, static_cast<unsigned long long>(m.timed_adus),
               static_cast<double>(m.timed_sim) / kSecond, s.window);
  std::fprintf(stderr, "perfbench: %zu spells, 10th percentile %.0f ADUs/s\n",
               m.spells.rates().size(), m.spells.rate());
}

/// --setup-only: the set-up's time, reported once every warm-up ADU has
/// landed and the stack is torn down.
void setup_outcome(const Measured& m, const App& app, Outcome& out) {
  out.attempted = app.delivered() + app.outstanding();
  out.failed = app.outstanding();
  if (!app.ok()) {
    out.correct = false;
    out.why = app.why();
  }
  out.metrics = {{"setup_s", m.setup_s, "s"}};
}

/// bulk_xdr and small_lossy: one association, sender to receiver.
Outcome run_alf(const Spec& s, const Args& a, Tracer* tr) {
  Outcome out;
  Measured m;
  const Inputs in = make_inputs(s, a.seed);
  std::vector<Record> records = in.records;
  App app(s, in, tr);
  m.base_kb = status_kb("VmRSS");

  std::unique_ptr<buf::BufferPool> pool;
  std::unique_ptr<AlfRig> rig;
  PlanPtr plan;
  std::uint64_t ord = 0;
  std::size_t gap = 0;
  SimTime next_at = 0;
  // Open loop: ADU k is offered at the k-th Poisson arrival on the sim
  // clock, whatever the receiver is doing.
  const auto send_one = [&]() -> bool {
    next_at += in.gaps[gap++ % kGaps];
    m.events += advance(rig->loop, next_at, tr);
    Record& rec = records[ord % s.distinct];
    rec[0] = static_cast<std::int32_t>(ord);
    Result<std::uint32_t> id = [&] {
      Span span(tr, kSendRecord);
      return rig->sender.send_record(generic_name(ord), *plan, rec);
    }();
    if (!id.ok()) return app.fail("send refused");
    if (!app.on_send(ord, rig->loop.now(), *id)) return false;
    ++ord;
    return true;
  };
  const auto check_stack = [&] {
    if (const char* f = receiver_fault(rig->receiver.stats())) app.fail(f);
    if (const char* f = link_fault(rig->ch.forward)) app.fail(f);
    if (const char* f = link_fault(rig->ch.reverse)) app.fail(f);
    if (rig->sender.failed()) app.fail("sender session failed");
  };
  const auto teardown = [&] {
    rig.reset();
    m.segments_live_end = pool ? pool->stats().segments_live : 0;
    if (m.segments_live_end != 0) app.fail("pool segments live after teardown");
    pool.reset();
  };
  // The application's side of the retransmission contract: an ADU it has
  // received is released at the sender.
  app.set_release([&rig](std::uint32_t id) { rig->sender.release_adu(id); });

  // ---- set-up: the stack, then the untimed warm-up
  const auto t_setup = Clock::now();
  plan = stack_plan();
  app.set_plan(plan.get());
  if (s.pooled) pool = std::make_unique<buf::BufferPool>();
  rig = std::make_unique<AlfRig>(s, in, plan, pool.get(), tr);
  AlfRig& r = *rig;
  r.receiver.set_on_adu([&app, &r](Adu&& adu) { app.consume_flat(adu, r.loop.now()); });
  if (s.pooled) {
    r.receiver.set_on_adu_chain(
        [&app, &r](AduChain&& c) { app.consume_chain(c, r.loop.now()); });
  }
  for (std::size_t k = 0; k < s.warmup && send_one();) ++k;
  m.events += advance(r.loop, r.loop.now() + settle_time(s), tr);
  m.setup_s = seconds_since(t_setup);
  if (a.setup_only) {
    r.sender.finish();
    drain(r.loop, app, tr, m);
    if (app.outstanding() != 0) app.fail("a warm-up ADU was not delivered");
    check_stack();
    teardown();
    setup_outcome(m, app, out);
    return out;
  }
  next_at = r.loop.now();  // the open-loop schedule resumes after the settle

  // ---- timed region
  Counters c0 = r.counters(app), cp;
  app.open_window(ord);
  app.set_on_window_complete([&] {
    cp = r.counters(app);
    m.hwm_kb = status_kb("VmHWM");
  });
  if (tr != nullptr) tr->reset_except(kCreate);
  m.events = 0;
  const std::uint64_t first = ord;
  const SimTime sim0 = r.loop.now();
  const auto t0 = Clock::now();
  const std::uint64_t check_every = s.ints > 1000 ? 16 : 256;
  m.spells.start(app.delivered());
  while (send_one()) {
    if (ord % check_every == 0) {
      const double el = seconds_since(t0);
      m.spells.tick(el, app.delivered());
      if ((el >= a.seconds && app.window_complete()) || el >= kMaxTimedSeconds) break;
    }
  }
  r.sender.finish();
  drain(r.loop, app, tr, m);
  m.timed_s = seconds_since(t0);
  m.timed_sim = r.loop.now() - sim0;
  m.timed_adus = ord - first;
  out.attempted = m.timed_adus;
  m.window = minus(cp, c0);

  check_stack();
  m.slab_allocs = pool ? pool->stats().slab_allocs : 0;
  finish_checks(s, a, m, app, out);
  teardown();
  if (!app.ok() && out.correct) {
    out.correct = false;
    out.why = app.why();
  }

  Replays rp;
  if (tr != nullptr) rp = run_replays(s, in, *plan);
  report(s, a, m, app, tr, rp, out);
  return out;
}

/// session_plane: a population of receive-only flows behind sessiond.
Outcome run_plane(const Spec& s, const Args& a, Tracer* tr) {
  Outcome out;
  Measured m;
  const Inputs in = make_inputs(s, a.seed);
  App app(s, in, tr);
  std::unique_ptr<FrameSource> src;
  std::unique_ptr<PlaneRig> rig;
  std::uint64_t ord = 0, injected = 0;
  std::size_t gap = 0;
  SimTime next_at = 0;
  const auto inject = [&](std::size_t i) -> bool {
    next_at += in.gaps[gap++ % kGaps];
    m.events += advance(rig->loop, next_at, tr);
    bool sent;
    {
      Span span(tr, kLinkSend);
      sent = rig->ch.forward.send(src->frame(i));
    }
    if (!sent) return app.fail("ingress link refused a frame");
    if (!app.on_send(ord, rig->loop.now(), 0)) return false;
    ++ord;
    ++injected;
    return true;
  };
  // The frame arena is allocated before the resident baseline.
  src = std::make_unique<FrameSource>(s, in);
  m.base_kb = status_kb("VmRSS");

  // ---- set-up: the plane, admission of the population, the warm-up.
  // Set-up time excludes encoding the frames (the remote senders' work).
  double generating = 0;
  const auto fill = [&](std::size_t n, long first_flow) {
    const auto g0 = Clock::now();
    src->fill(n, ord, first_flow);
    generating += seconds_since(g0);
  };
  const auto t_setup = Clock::now();
  const std::uint64_t kb0 = status_kb("VmRSS");
  const PlanPtr plan = stack_plan();
  app.set_plan(plan.get());
  rig = std::make_unique<PlaneRig>(s, in, plan, app, tr);
  PlaneRig& r = *rig;
  // Admission: the first frame of every flow, in flow order.
  for (std::size_t f = 0; f < s.flows; f += FrameSource::kBatch) {
    const std::size_t n = std::min(FrameSource::kBatch, s.flows - f);
    fill(n, static_cast<long>(f));
    for (std::size_t i = 0; i < n && inject(i); ++i) {
    }
  }
  m.events += advance(r.loop, r.loop.now() + settle_time(s), tr);
  next_at = r.loop.now();
  r.admitting = false;
  const std::uint64_t kb1 = status_kb("VmRSS");
  m.bytes_per_session = static_cast<double>(kb1 - std::min(kb1, kb0)) * 1024.0 /
                        static_cast<double>(s.flows);
  fill(s.warmup, -1);
  for (std::size_t i = 0; i < s.warmup && inject(i); ++i) {
  }
  m.events += advance(r.loop, r.loop.now() + settle_time(s), tr);
  m.setup_s = seconds_since(t_setup) - generating;
  drain(r.loop, app, tr, m);
  if (app.outstanding() != 0) app.fail("a set-up frame was not delivered");
  next_at = r.loop.now();
  if (r.daemon.dispatcher().stats().sessions_created != s.flows) {
    app.fail("population admission did not create every flow");
  }
  const auto check_plane = [&] {
    for (const alf::AlfReceiver* rx : r.flows) {
      if (const char* f = receiver_fault(rx->stats())) app.fail(f);
    }
    if (const char* f = link_fault(r.ch.forward)) app.fail(f);
    const sessiond::Dispatcher::Stats ds = r.daemon.dispatcher().stats();
    if (ds.frames_unroutable != 0 || ds.creates_rejected != 0) {
      app.fail("dispatcher dropped a frame");
    }
  };
  if (a.setup_only) {
    check_plane();
    rig.reset();
    setup_outcome(m, app, out);
    return out;
  }

  // ---- timed region: batches of frames encoded untimed, injected timed.
  Counters c0 = r.counters(app, injected), cp;
  app.open_window(ord);
  app.set_on_window_complete([&] {
    cp = r.counters(app, injected);
    m.hwm_kb = status_kb("VmHWM");
  });
  if (tr != nullptr) tr->reset_except(kCreate);
  m.events = 0;
  const std::uint64_t first = ord;
  const SimTime sim0 = r.loop.now();
  bool stop = false;
  m.spells.start(app.delivered());
  while (!stop) {
    src->fill(FrameSource::kBatch, ord, -1);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < FrameSource::kBatch; ++i) {
      if (!inject(i)) {
        stop = true;
        break;
      }
      if (i % 256 == 255) {
        const double el = m.timed_s + seconds_since(t0);
        m.spells.tick(el, app.delivered());
        if ((el >= a.seconds && app.window_complete()) || el >= kMaxTimedSeconds) {
          stop = true;
          break;
        }
      }
    }
    m.timed_s += seconds_since(t0);
  }
  const auto t1 = Clock::now();
  drain(r.loop, app, tr, m);
  m.timed_s += seconds_since(t1);
  m.timed_sim = r.loop.now() - sim0;
  m.timed_adus = ord - first;
  out.attempted = m.timed_adus;
  m.window = minus(cp, c0);
  m.occupancy_peak = r.daemon.table().stats().occupancy_peak;

  check_plane();
  finish_checks(s, a, m, app, out);
  rig.reset();

  Replays rp;
  if (tr != nullptr) rp = run_replays(s, in, *plan);
  report(s, a, m, app, tr, rp, out);
  return out;
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& mt = out.metrics[i];
    const double v = std::isfinite(mt.value) ? mt.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                mt.name.c_str(), v, mt.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <bulk_xdr|small_lossy|session_plane> "
                 "--seed <n> --seconds <1..120> --trace <0|1> [--trace-out <file>] "
                 "[--setup-only 0|1]\n");
    return 2;
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (a.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::fprintf(stderr, "perfbench: kernel tier %s\n",
               ngp::simd::tier_name(ngp::simd::active_tier()));
  Tracer tracer;
  Tracer* tr = a.trace ? &tracer : nullptr;
  const Outcome out = spec->flows > 0 ? run_plane(*spec, a, tr) : run_alf(*spec, a, tr);
  if (!out.correct) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", out.why.c_str());
  if (tr != nullptr && !a.trace_out.empty() && !tracer.write_chrome_trace(a.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
  }
  print_result(out);
  return 0;
}
