// trace.h — the benchmark's own span recorder for the traced run.
//
// Spans are recorded from the benchmark's code around calls into each
// layer's public functions (nothing inside the library is instrumented).
// Each span's inclusive duration and self time (duration minus the time its
// child spans cover) go into per-layer histograms; the last kRingSpans raw
// spans are kept in memory and written out as a Chrome trace_event file when
// the run ends. A null Tracer* makes every Span a no-op, which is how the
// timed (untraced) run uses the same driver code.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Layer boundaries the benchmark times. Order fixes the trace-file names.
enum SpanId : std::uint8_t {
  kSendRecord,  ///< AlfSender::send_record
  kLinkSend,    ///< NetPath::send into a Link
  kRxFrame,     ///< data-path delivery handler (the AlfReceiver)
  kFeedback,    ///< feedback-path delivery handler (the AlfSender)
  kEventLoop,   ///< EventLoop::run_until called by the driver
  kApp,         ///< the application's delivery callback
  kDispatch,    ///< sessiond Dispatcher::dispatch at full population
  kCreate,      ///< Dispatcher::dispatch of a flow's first frame (set-up)
  kSpanCount,
};

inline constexpr std::array<const char*, kSpanCount> kSpanNames = {
    "alf.send_record", "netsim.link_send", "alf.rx_frame", "alf.feedback",
    "util.event_loop", "app.consume",      "sessiond.dispatch",
    "sessiond.create"};

/// Log-linear histogram of nanosecond durations: exact below 64 ns, then 64
/// sub-buckets per power of two (under 1.6% relative width). Quantiles
/// interpolate inside the bucket, so they are not pinned to bucket edges.
class DurHist {
 public:
  void add(std::uint64_t ns) {
    ++buckets_[index(ns)];
    ++count_;
  }
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = q * static_cast<double>(count_ - 1);
    double before = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const double c = static_cast<double>(buckets_[i]);
      if (c > 0 && before + c > rank) {
        const auto [lo, width] = bounds(i);
        return lo + width * ((rank - before + 0.5) / c);
      }
      before += c;
    }
    return 0.0;
  }

 private:
  static constexpr std::size_t kSub = 64;
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);  // v in [2^e, 2^(e+1)), e >= 6
    const int shift = e - 6;
    return kSub + static_cast<std::size_t>(shift) * kSub +
           static_cast<std::size_t>((v >> shift) - kSub);
  }
  static std::pair<double, double> bounds(std::size_t i) {
    if (i < kSub) return {static_cast<double>(i), 1.0};
    const std::size_t shift = (i - kSub) / kSub;
    const std::uint64_t m = kSub + (i - kSub) % kSub;
    return {static_cast<double>(m << shift),
            static_cast<double>(std::uint64_t{1} << shift)};
  }
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kSub * 59);
  std::uint64_t count_ = 0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Layer {
    DurHist inclusive;
    DurHist self;
    std::uint64_t self_ns = 0;
  };

  void begin(SpanId id) {
    Open& o = stack_[depth_++];
    o.id = id;
    o.child_ns = 0;
    o.start = Clock::now();
  }
  void end() {
    const Clock::time_point t = Clock::now();
    Open& o = stack_[--depth_];
    const auto dur = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - o.start).count());
    const std::uint64_t self = dur > o.child_ns ? dur - o.child_ns : 0;
    Layer& l = layers_[o.id];
    l.inclusive.add(dur);
    l.self.add(self);
    l.self_ns += self;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
    Raw& r = ring_[ring_next_++ % kRingSpans];
    r.id = o.id;
    r.depth = static_cast<std::uint8_t>(depth_);
    r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(o.start - epoch_)
                     .count();
    r.dur_ns = dur;
  }

  /// Forgets every layer's statistics except `keep` (set-up spans are kept
  /// apart from the timed region's).
  void reset_except(SpanId keep) {
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (i != keep) layers_[i] = Layer{};
    }
  }
  const Layer& layer(SpanId id) const { return layers_[id]; }
  std::uint64_t self_ns_total_except(SpanId skip) const {
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (i != skip) s += layers_[i].self_ns;
    }
    return s;
  }

  /// Writes the retained spans as Chrome trace_event JSON ("X" events, one
  /// thread lane). Returns false if the file cannot be written.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    const std::uint64_t n = ring_next_ < kRingSpans ? ring_next_ : kRingSpans;
    for (std::uint64_t k = 0; k < n; ++k) {
      const Raw& r = ring_[(ring_next_ - n + k) % kRingSpans];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%u}}",
                   k == 0 ? "" : ",\n", kSpanNames[r.id],
                   static_cast<double>(r.start_ns) / 1e3,
                   static_cast<double>(r.dur_ns) / 1e3, r.depth);
    }
    std::fprintf(f, "\n],\"spans_recorded\":%llu}\n",
                 static_cast<unsigned long long>(ring_next_));
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::size_t kRingSpans = 1 << 16;
  struct Open {
    SpanId id = kSpanCount;
    std::uint64_t child_ns = 0;
    Clock::time_point start;
  };
  struct Raw {
    std::uint8_t id = 0;
    std::uint8_t depth = 0;
    std::int64_t start_ns = 0;
    std::uint64_t dur_ns = 0;
  };
  std::array<Open, 32> stack_{};
  std::size_t depth_ = 0;
  std::array<Layer, kSpanCount> layers_{};
  std::vector<Raw> ring_ = std::vector<Raw>(kRingSpans);
  std::uint64_t ring_next_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class Span {
 public:
  Span(Tracer* t, SpanId id) : t_(t) {
    if (t_ != nullptr) t_->begin(id);
  }
  ~Span() {
    if (t_ != nullptr) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench
