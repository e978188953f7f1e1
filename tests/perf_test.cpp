// perf_test — the self-diagnosing harness suite (DESIGN.md §14).
//
// Three layers, innermost first:
//   - the strict JSON reader (perf/json.h) the trajectory tool parses
//     checked-in baselines with;
//   - the ngp.bench/1 schema rules + baseline diff (perf/schema.h);
//   - the attribution math itself (perf/harness.h) against a SYNTHETIC
//     workload with a deterministic cost model and a KNOWN injected
//     bottleneck — rank order and deltas are exact, no wall clock — plus
//     one small run of the real DatapathWorkload so the engine-threaded
//     datapath is covered under TSan.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perf/datapath.h"
#include "perf/harness.h"
#include "perf/json.h"
#include "perf/schema.h"

namespace ngp::perf {
namespace {

// ---------------------------------------------------------------------------
// JSON reader

TEST(PerfJson, ParsesScalarsAndStructure) {
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::parse(R"({"a": 1.5, "b": [true, null, "x"], "c": {}})", v,
                          &err))
      << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.get("a")->as_number(), 1.5);
  const json::Value* b = v.get("b");
  ASSERT_TRUE(b != nullptr && b->is_array());
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].as_bool());
  EXPECT_TRUE(b->items()[1].is_null());
  EXPECT_EQ(b->items()[2].as_string(), "x");
  EXPECT_TRUE(v.get("c")->is_object());
  EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(PerfJson, PreservesMemberInsertionOrder) {
  json::Value v;
  ASSERT_TRUE(json::parse(R"({"z": 1, "a": 2, "m": 3})", v));
  ASSERT_EQ(v.members().size(), 3u);
  EXPECT_EQ(v.members()[0].first, "z");
  EXPECT_EQ(v.members()[1].first, "a");
  EXPECT_EQ(v.members()[2].first, "m");
}

TEST(PerfJson, RejectsDuplicateKeys) {
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::parse(R"({"k": 1, "k": 2})", v, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(PerfJson, DecodesEscapesIncludingSurrogatePairs) {
  json::Value v;
  ASSERT_TRUE(json::parse(R"(["A\n\t\"\\", "é", "😀"])", v));
  ASSERT_EQ(v.items().size(), 3u);
  EXPECT_EQ(v.items()[0].as_string(), "A\n\t\"\\");
  EXPECT_EQ(v.items()[1].as_string(), "\xc3\xa9");          // é
  EXPECT_EQ(v.items()[2].as_string(), "\xf0\x9f\x98\x80");  // 😀 (U+1F600)
}

TEST(PerfJson, RejectsLoneSurrogate) {
  json::Value v;
  EXPECT_FALSE(json::parse(R"(["\ud83d"])", v));
}

TEST(PerfJson, RejectsTrailingGarbageAndReportsOffset) {
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::parse("{} x", v, &err));
  EXPECT_NE(err.find("3"), std::string::npos) << err;  // byte offset of 'x'
}

TEST(PerfJson, RejectsNonJsonConstructs) {
  json::Value v;
  EXPECT_FALSE(json::parse("{'single': 1}", v));
  EXPECT_FALSE(json::parse("[1, 2,]", v));      // trailing comma
  EXPECT_FALSE(json::parse("[01]", v));         // leading zero
  EXPECT_FALSE(json::parse("[+1]", v));         // leading plus
  EXPECT_FALSE(json::parse("[nul]", v));
  EXPECT_FALSE(json::parse("", v));
}

TEST(PerfJson, BoundsRecursionDepth) {
  std::string deep(10'000, '[');
  deep += std::string(10'000, ']');
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::parse(deep, v, &err));
  EXPECT_NE(err.find("deep"), std::string::npos) << err;
}

TEST(PerfJson, ParseFileReportsMissingFile) {
  json::Value v;
  std::string err;
  EXPECT_FALSE(json::parse_file("/nonexistent/ngp-perf-test.json", v, &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// ngp.bench/1 schema

/// A minimal schema-valid document; tests mutate the pieces they target.
std::string valid_report_text(const char* bench = "synthetic",
                              bool smoke = false) {
  std::string s = R"({
    "schema": "ngp.bench/1",
    "bench": ")";
  s += bench;
  s += R"(",
    "seed": 1,
    "smoke": )";
  s += smoke ? "true" : "false";
  s += R"(,
    "metrics": {"sat_mbps": 100.0, "copied_bytes": 4096},
    "tracked": [
      {"metric": "sat_mbps", "higher_is_better": true, "tolerance_frac": 0.2},
      {"metric": "copied_bytes", "higher_is_better": false, "tolerance_frac": 0.0}
    ],
    "holds": [{"name": "all_delivered", "ok": true}],
    "all_holds_ok": true,
    "detail": {}
  })";
  return s;
}

json::Value parse_ok(const std::string& text) {
  json::Value v;
  std::string err;
  EXPECT_TRUE(json::parse(text, v, &err)) << err;
  return v;
}

TEST(PerfSchema, AcceptsValidReport) {
  const ValidationResult r = validate_report(parse_ok(valid_report_text()));
  EXPECT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors.front());
}

TEST(PerfSchema, FlagsEveryViolationClass) {
  struct Case {
    const char* name;
    std::string text;
  };
  std::string wrong_id = valid_report_text();
  wrong_id.replace(wrong_id.find("ngp.bench/1"), 11, "ngp.bench/2");
  std::string bad_bench = valid_report_text("Has Spaces");
  std::string bad_hash = valid_report_text();
  bad_hash.replace(bad_hash.find("\"all_holds_ok\": true"), 20,
                   "\"all_holds_ok\": false");
  // The parser itself already rejects non-finite literals (1e999 is a
  // parse error), so the schema-level "finite number" rule is exercised
  // with a wrong-typed metric value instead.
  std::string nan_metric = valid_report_text();
  nan_metric.replace(nan_metric.find("100.0"), 5, "\"x\"");
  std::string ghost_tracked = valid_report_text();
  ghost_tracked.replace(ghost_tracked.find("\"metric\": \"sat_mbps\""), 20,
                        "\"metric\": \"no_such\"");
  std::string bad_tol = valid_report_text();
  bad_tol.replace(bad_tol.find("\"tolerance_frac\": 0.2"), 21,
                  "\"tolerance_frac\": 1.5");
  std::string dup_hold = valid_report_text();
  const std::string holds_needle = R"([{"name": "all_delivered", "ok": true}])";
  dup_hold.replace(dup_hold.find(holds_needle), holds_needle.size(),
                   R"([{"name": "h", "ok": true}, {"name": "h", "ok": true}])");
  const Case cases[] = {
      {"wrong schema id", wrong_id},
      {"bad bench name", bad_bench},
      {"all_holds_ok not AND of holds", bad_hash},
      {"non-finite metric", nan_metric},
      {"tracked names missing metric", ghost_tracked},
      {"tolerance_frac out of [0,1)", bad_tol},
      {"duplicate hold names", dup_hold},
  };
  for (const Case& c : cases) {
    const ValidationResult r = validate_report(parse_ok(c.text));
    EXPECT_FALSE(r.ok()) << c.name << " should have been rejected";
  }
}

TEST(PerfSchema, FlagsMissingRequiredKeys) {
  const char* keys[] = {"schema", "bench",        "seed",  "smoke",
                        "metrics", "tracked",     "holds", "all_holds_ok",
                        "detail"};
  for (const char* key : keys) {
    std::string text = valid_report_text();
    const std::string needle = std::string("\"") + key + "\":";
    const auto pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos) << key;
    // Rename the key so it is absent (keeps the JSON well formed).
    text.replace(pos + 1, std::strlen(key), std::string(std::strlen(key), 'x'));
    const ValidationResult r = validate_report(parse_ok(text));
    EXPECT_FALSE(r.ok()) << "missing key " << key << " should be rejected";
  }
}

TEST(PerfSchema, ReportsAllViolationsNotJustFirst) {
  std::string text = valid_report_text("Bad Name");
  text.replace(text.find("ngp.bench/1"), 11, "nope");
  const ValidationResult r = validate_report(parse_ok(text));
  EXPECT_GE(r.errors.size(), 2u);
}

TEST(PerfSchema, ExpectBenchAndForbidSmoke) {
  ValidateOptions opt;
  opt.expect_bench = "other";
  EXPECT_FALSE(validate_report(parse_ok(valid_report_text()), opt).ok());
  opt.expect_bench = "synthetic";
  EXPECT_TRUE(validate_report(parse_ok(valid_report_text()), opt).ok());
  opt.forbid_smoke = true;
  EXPECT_FALSE(
      validate_report(parse_ok(valid_report_text("synthetic", true)), opt).ok());
}

TEST(PerfSchema, ExtractsTrackedDeclarations) {
  const std::vector<TrackedMetric> t =
      tracked_metrics(parse_ok(valid_report_text()));
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].metric, "sat_mbps");
  EXPECT_TRUE(t[0].higher_is_better);
  EXPECT_DOUBLE_EQ(t[0].tolerance_frac, 0.2);
  EXPECT_EQ(t[1].metric, "copied_bytes");
  EXPECT_FALSE(t[1].higher_is_better);
}

// ---------------------------------------------------------------------------
// Trajectory diff

/// Builds a current run from the valid baseline with chosen metric values.
std::string current_with(double sat_mbps, double copied_bytes) {
  std::string s = valid_report_text();
  s.replace(s.find("100.0"), 5, std::to_string(sat_mbps));
  s.replace(s.find("4096"), 4, std::to_string(copied_bytes));
  return s;
}

TEST(PerfTrajectory, WithinToleranceIsClean) {
  const TrajectoryDiff d = compare_reports(parse_ok(valid_report_text()),
                                           parse_ok(current_with(85.0, 4096)));
  EXPECT_TRUE(d.ok()) << (d.errors.empty() ? "regressed" : d.errors.front());
  EXPECT_FALSE(d.regressed());
}

TEST(PerfTrajectory, RegressionBeyondToleranceFails) {
  // sat_mbps tolerance 0.2: 100 -> 75 is a 25% drop.
  const TrajectoryDiff d = compare_reports(parse_ok(valid_report_text()),
                                           parse_ok(current_with(75.0, 4096)));
  EXPECT_TRUE(d.regressed());
  EXPECT_FALSE(d.ok());
  ASSERT_EQ(d.deltas.size(), 2u);
  EXPECT_TRUE(d.deltas[0].regression);
  EXPECT_NEAR(d.deltas[0].change_frac, -0.25, 1e-12);
}

TEST(PerfTrajectory, LowerIsBetterDirectionRespected) {
  // copied_bytes is lower-is-better at zero tolerance: ANY increase fails,
  // a decrease is an improvement.
  const TrajectoryDiff up = compare_reports(parse_ok(valid_report_text()),
                                            parse_ok(current_with(100.0, 4097)));
  EXPECT_TRUE(up.regressed());
  const TrajectoryDiff down = compare_reports(
      parse_ok(valid_report_text()), parse_ok(current_with(100.0, 1024)));
  EXPECT_FALSE(down.regressed());
  EXPECT_TRUE(down.deltas[1].improvement);
}

TEST(PerfTrajectory, MissingTrackedMetricFails) {
  std::string cur = valid_report_text();
  // Rename the metric everywhere in the current run, including tracked.
  std::string::size_type pos = 0;
  while ((pos = cur.find("copied_bytes", pos)) != std::string::npos) {
    cur.replace(pos, 12, "copied_words");
  }
  const TrajectoryDiff d =
      compare_reports(parse_ok(valid_report_text()), parse_ok(cur));
  EXPECT_TRUE(d.regressed());
  ASSERT_EQ(d.deltas.size(), 2u);
  EXPECT_TRUE(d.deltas[1].missing);
}

TEST(PerfTrajectory, BenchNameMismatchErrors) {
  const TrajectoryDiff d = compare_reports(parse_ok(valid_report_text()),
                                           parse_ok(valid_report_text("other")));
  EXPECT_FALSE(d.errors.empty());
  EXPECT_FALSE(d.ok());
}

TEST(PerfTrajectory, FailingCurrentHoldsFailRegardlessOfNumbers) {
  std::string cur = current_with(200.0, 1024);  // strictly better numbers
  cur.replace(cur.find(R"("ok": true)"), 10, R"("ok": false)");
  cur.replace(cur.find("\"all_holds_ok\": true"), 20,
              "\"all_holds_ok\": false");
  const TrajectoryDiff d =
      compare_reports(parse_ok(valid_report_text()), parse_ok(cur));
  EXPECT_FALSE(d.current_holds_ok);
  EXPECT_FALSE(d.ok());
}

TEST(PerfTrajectory, ZeroBaselineDoesNotDivide) {
  std::string base = valid_report_text();
  base.replace(base.find("4096"), 4, "0");
  const TrajectoryDiff d =
      compare_reports(parse_ok(base), parse_ok(current_with(100.0, 8.0)));
  ASSERT_EQ(d.deltas.size(), 2u);
  EXPECT_TRUE(std::isfinite(d.deltas[1].change_frac));
  // 0 -> 8 copied bytes at zero tolerance is a regression, not a NaN.
  EXPECT_TRUE(d.deltas[1].regression);
}

// ---------------------------------------------------------------------------
// The harness against a synthetic workload with a KNOWN bottleneck

/// Two-stage pipeline with a pure, deterministic cost model. Stage A is
/// the INJECTED bottleneck: perturbing it triples its per-ADU cost, while
/// stage B's perturbation adds only 20%. A third memory-kind perturbation
/// adds a copy stage that moves both currencies. Saturation comes from a
/// fixed per-run overhead amortised as offered load grows, with a hard
/// concurrency ceiling at `knee_` in-flight ADUs.
class SyntheticWorkload final : public Workload {
 public:
  explicit SyntheticWorkload(std::uint64_t seed) : seed_(seed) {}

  std::string name() const override { return "synthetic"; }

  std::vector<PerturbationInfo> perturbations() const override {
    return {
        {"slow_stage_a", "triple stage A cost",
         PerturbationInfo::Kind::kCompute},
        {"slow_stage_b", "stage B +20%", PerturbationInfo::Kind::kCompute},
        {"extra_copy", "one more pass over the payload",
         PerturbationInfo::Kind::kMemory},
    };
  }

  RunMeasurement run(std::size_t offered,
                     const std::string& perturbation) override {
    // Seed-dependent but deterministic stage costs (units: cost per byte).
    const double a_base = 1.0 + static_cast<double>(seed_ % 7) * 0.05;
    const double b_base = 0.4 + static_cast<double>(seed_ % 3) * 0.05;
    double a = a_base, b = b_base, copy = 0.0;
    if (perturbation == "slow_stage_a") a *= 3.0;
    if (perturbation == "slow_stage_b") b *= 1.2;
    if (perturbation == "extra_copy") copy = 0.5;

    const double adu_bytes = 1024.0;
    const std::size_t effective = offered < knee_ ? offered : knee_;
    RunMeasurement m;
    m.payload_bytes = static_cast<double>(effective) * adu_bytes;
    m.cost_units = m.payload_bytes * (a + b + copy) + fixed_overhead_;
    m.ledger["adus_delivered"] = static_cast<double>(effective);
    m.ledger["memory_passes"] = copy > 0.0 ? 3.0 : 2.0;
    m.ledger["copied_bytes"] = copy > 0.0 ? m.payload_bytes : 0.0;
    // The output is WHAT was computed — a function of seed and payload
    // only, never of the perturbation.
    m.output_hash = seed_ * 0x9E3779B97F4A7C15ull ^ effective;
    return m;
  }

 private:
  std::uint64_t seed_;
  std::size_t knee_ = 16;           ///< concurrency ceiling
  double fixed_overhead_ = 4096.0;  ///< per-run setup cost to amortise
};

TEST(PerfHarness, FindSaturationStopsAtTheKnee) {
  SyntheticWorkload w(1);
  SaturationOptions opt;
  opt.offered_start = 2;
  opt.offered_max = 256;
  const SaturationResult r = find_saturation(w, opt);
  // Beyond offered=16 the model adds zero throughput, so the plateau
  // check must stop the search well before offered_max...
  ASSERT_GE(r.steps.size(), 2u);
  EXPECT_LE(r.steps.back().offered, 64u);
  // ...and the chosen point is the best measured, at or past the knee.
  EXPECT_GE(r.offered_at_saturation, 16u);
  for (const SaturationPoint& p : r.steps) {
    EXPECT_LE(p.mbps, r.sat_mbps * (1.0 + 1e-12));
  }
}

TEST(PerfHarness, InjectedBottleneckRanksFirst) {
  SyntheticWorkload w(7);
  SaturationOptions opt;
  opt.offered_start = 2;
  const PerfReport report = diagnose(w, opt);
  ASSERT_EQ(report.ranked.size(), 3u);
  EXPECT_EQ(report.ranked[0].op.name, "slow_stage_a");
  // Every perturbation slows the model down, stage A the most.
  EXPECT_GT(report.ranked[0].delta_frac, report.ranked[1].delta_frac);
  EXPECT_GT(report.ranked[2].delta_frac, 0.0);
  for (const OperatorDelta& d : report.ranked) {
    EXPECT_TRUE(d.output_hash_matches) << d.op.name;
  }
}

TEST(PerfHarness, LedgerSeparatesComputeFromMemoryPerturbations) {
  SyntheticWorkload w(3);
  SaturationOptions opt;
  opt.offered_start = 2;
  const PerfReport report = diagnose(w, opt);
  for (const OperatorDelta& d : report.ranked) {
    if (d.op.kind == PerturbationInfo::Kind::kCompute) {
      // Compute perturbations move wall cost only — empty ledger delta.
      EXPECT_TRUE(d.ledger_delta.empty()) << d.op.name;
    } else {
      // The memory perturbation's footprint is exact: one extra pass over
      // every delivered payload byte.
      ASSERT_EQ(d.op.name, "extra_copy");
      EXPECT_DOUBLE_EQ(d.ledger_delta.at("memory_passes"), 1.0);
      EXPECT_DOUBLE_EQ(d.ledger_delta.at("copied_bytes"),
                       report.baseline.at_saturation.payload_bytes);
    }
  }
}

TEST(PerfHarness, DiagnosisIsDeterministicPerSeed) {
  SaturationOptions opt;
  opt.offered_start = 2;
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    SyntheticWorkload w1(seed), w2(seed);
    const PerfReport a = diagnose(w1, opt);
    const PerfReport b = diagnose(w2, opt);
    ASSERT_EQ(a.ranked.size(), b.ranked.size());
    EXPECT_EQ(a.baseline.offered_at_saturation, b.baseline.offered_at_saturation);
    EXPECT_DOUBLE_EQ(a.baseline.sat_mbps, b.baseline.sat_mbps);
    for (std::size_t i = 0; i < a.ranked.size(); ++i) {
      EXPECT_EQ(a.ranked[i].op.name, b.ranked[i].op.name);
      EXPECT_DOUBLE_EQ(a.ranked[i].delta_frac, b.ranked[i].delta_frac);
      EXPECT_EQ(a.ranked[i].ledger_delta, b.ranked[i].ledger_delta);
    }
  }
}

TEST(PerfHarness, RenderTableNamesEveryOperator) {
  SyntheticWorkload w(1);
  SaturationOptions opt;
  opt.offered_start = 2;
  const std::string table = diagnose(w, opt).render_table();
  for (const char* op : {"slow_stage_a", "slow_stage_b", "extra_copy"}) {
    EXPECT_NE(table.find(op), std::string::npos) << op;
  }
}

// ---------------------------------------------------------------------------
// The real datapath, small — engine threads live here, so the `tsan`
// label runs this under NGP_SANITIZE=thread.

TEST(PerfDatapath, ScalarTierPreservesOutputAndLedger) {
  DatapathOptions opt;
  opt.seed = 11;
  opt.total_adus = 16;
  opt.ints_per_adu = 256;
  opt.engine_workers = 2;
  DatapathWorkload w(opt);

  const RunMeasurement base = w.run(8, "");
  const RunMeasurement scalar = w.run(8, kPerturbScalarKernels);

  EXPECT_EQ(base.ledger.at("adus_delivered"), 16.0);
  EXPECT_EQ(scalar.ledger.at("adus_delivered"), 16.0);
  // Kernel tier changes HOW bytes are touched, never WHAT is computed or
  // how many §4 passes/copies happen.
  EXPECT_EQ(base.output_hash, scalar.output_hash);
  EXPECT_EQ(base.ledger, scalar.ledger);
  EXPECT_TRUE(base.slo_failures.empty());
  EXPECT_TRUE(scalar.slo_failures.empty());
}

// Regression: the workload must be reusable in one process and must not
// hold every sent ADU. Two inline (engine-off) pooled runs in a row, each
// sending more than the sender's 16 MiB retransmit-buffer limit: delivered
// ADUs are released at the sender, and the pool outlives every holder of
// its segments (a segment recycled into a dead pool left a thread cache
// that crashed the process at exit).
TEST(PerfDatapath, PooledRunsTwiceInlinePastRetransmitLimit) {
  DatapathOptions opt;
  opt.seed = 12;
  opt.ints_per_adu = 4096;  // 16 KiB records
  opt.total_adus = 1100;    // about 17.6 MiB of payload per run
  opt.engine_workers = 0;
  ASSERT_TRUE(opt.pooled);
  DatapathWorkload w(opt);

  const RunMeasurement first = w.run(64, "");
  const RunMeasurement second = w.run(64, "");
  EXPECT_EQ(first.ledger.at("adus_delivered"), 1100.0);
  EXPECT_EQ(first.ledger.at("adus_chain_delivered"), 1100.0);
  EXPECT_EQ(first.output_hash, second.output_hash);
  EXPECT_EQ(first.ledger, second.ledger);
  EXPECT_TRUE(first.slo_failures.empty());
  EXPECT_TRUE(second.slo_failures.empty());
}

}  // namespace
}  // namespace ngp::perf
