// Tests for the telemetry subsystem: LatencyHistogram percentile edge
// cases (p=0 / p=100 / single sample / post-merge, with the ~6%
// mid-range error bound), the seqlock span ring (wrap semantics and
// torn-read freedom under concurrent snapshots — the TSan job hammers
// this), TraceSession lifecycle, the Chrome trace-event and Prometheus
// exporters (the latter against a committed golden file), end-to-end
// span collection from a served 2-stage pipeline under delay chaos,
// replay-after-crash spans, the kernel-profile/roofline math, and the
// simulator's shared-writer Chrome rendering. Every test here passes in
// both -DSSMA_TRACE=ON and OFF builds: the classes are always
// compiled, only the serving-path macros vanish, so the lifecycle
// tests gate their span assertions on SSMA_TRACE_ENABLED.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/pipeline.hpp"
#include "serve/metrics.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "sim/trace.hpp"
#include "telemetry/kernel_profile.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace ssma {
namespace {

using serve::LatencyHistogram;
using telemetry::kNoRequestId;
using telemetry::SpanEvent;
using telemetry::SpanRecorder;
using telemetry::Stage;
using telemetry::TraceSession;

// ---------------------------------------------------------------- JSON

/// Structural validity: braces/brackets balance outside strings, string
/// escapes parse. Not a full parser — catches the truncation/comma bugs
/// a hand-rolled writer can produce.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_str = false, esc = false;
  for (char c : s) {
    if (esc) {
      esc = false;
      continue;
    }
    if (in_str) {
      if (c == '\\')
        esc = true;
      else if (c == '"')
        in_str = false;
      continue;
    }
    if (c == '"')
      in_str = true;
    else if (c == '{' || c == '[')
      depth++;
    else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_str;
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

// ------------------------------------------------- LatencyHistogram

double exact_percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = std::max<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(v.size()))),
      1);
  return v[rank - 1];
}

TEST(LatencyHistogramTest, EmptyHistogramIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean_ns(), 0.0);
  EXPECT_EQ(h.min_ns(), 0.0);
  EXPECT_EQ(h.max_ns(), 0.0);
  EXPECT_EQ(h.percentile_ns(0), 0.0);
  EXPECT_EQ(h.percentile_ns(50), 0.0);
  EXPECT_EQ(h.percentile_ns(100), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleIsExactAtEveryPercentile) {
  LatencyHistogram h;
  h.add(12345.0);
  for (double p : {0.0, 1.0, 50.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(h.percentile_ns(p), 12345.0) << "p=" << p;
  EXPECT_DOUBLE_EQ(h.min_ns(), 12345.0);
  EXPECT_DOUBLE_EQ(h.max_ns(), 12345.0);
}

TEST(LatencyHistogramTest, ExtremesAreExact) {
  LatencyHistogram h;
  const std::vector<double> samples{430.0,    91.0,    5'000'000.0,
                                    77'000.0, 12000.0, 310.0};
  for (double s : samples) h.add(s);
  // p=0 is the observed minimum, p=100 the maximum — exactly, not a
  // bucket estimate.
  EXPECT_DOUBLE_EQ(h.percentile_ns(0), 91.0);
  EXPECT_DOUBLE_EQ(h.percentile_ns(100), 5'000'000.0);
}

TEST(LatencyHistogramTest, MidRangeErrorBoundedByBucketRatio) {
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i)
    samples.push_back(1000.0 + 7.0 * static_cast<double>(i));
  for (double s : samples) h.add(s);
  // Geometric buckets with ratio 1.12: the midpoint estimate is within
  // sqrt(1.12)-1 ~ 5.8% of the true nearest-rank value.
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const double exact = exact_percentile(samples, p);
    const double est = h.percentile_ns(p);
    EXPECT_NEAR(est / exact, 1.0, 0.06) << "p=" << p;
  }
}

TEST(LatencyHistogramTest, MergeFoldsExtremaAndKeepsBounds) {
  LatencyHistogram lo, hi;
  std::vector<double> all;
  for (int i = 0; i < 400; ++i) {
    const double a = 200.0 + 13.0 * i;
    const double b = 50'000.0 + 97.0 * i;
    lo.add(a);
    hi.add(b);
    all.push_back(a);
    all.push_back(b);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), 800u);
  EXPECT_DOUBLE_EQ(lo.percentile_ns(0), 200.0);
  EXPECT_DOUBLE_EQ(lo.percentile_ns(100), 50'000.0 + 97.0 * 399);
  for (double p : {25.0, 50.0, 75.0, 99.0}) {
    const double exact = exact_percentile(all, p);
    EXPECT_NEAR(lo.percentile_ns(p) / exact, 1.0, 0.06) << "p=" << p;
  }
}

TEST(LatencyHistogramTest, MergeIntoEmptyAdoptsOtherMin) {
  LatencyHistogram empty, other;
  other.add(777.0);
  empty.merge(other);
  EXPECT_DOUBLE_EQ(empty.percentile_ns(0), 777.0);
  EXPECT_DOUBLE_EQ(empty.percentile_ns(100), 777.0);
}

// ------------------------------------------------------ SpanRecorder

SpanEvent encoded_event(std::uint64_t i) {
  SpanEvent ev;
  ev.t_begin_ns = i;
  ev.t_end_ns = i + 1;
  ev.id_lo = 2 * i + 1;
  ev.id_hi = 3 * i + 7;
  ev.stage = static_cast<Stage>(i % telemetry::kNumStages);
  return ev;
}

/// Every field is a function of t_begin_ns — a torn read (fields from
/// two different pushes) cannot satisfy all four checks.
bool event_consistent(const SpanEvent& ev) {
  const std::uint64_t i = ev.t_begin_ns;
  return ev.t_end_ns == i + 1 && ev.id_lo == 2 * i + 1 &&
         ev.id_hi == 3 * i + 7 &&
         ev.stage == static_cast<Stage>(i % telemetry::kNumStages);
}

TEST(SpanRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpanRecorder(1).capacity(), 8u);
  EXPECT_EQ(SpanRecorder(8).capacity(), 8u);
  EXPECT_EQ(SpanRecorder(100).capacity(), 128u);
  EXPECT_EQ(SpanRecorder(1024).capacity(), 1024u);
}

TEST(SpanRecorderTest, SnapshotReturnsEventsOldestFirst) {
  SpanRecorder rec(16);
  for (std::uint64_t i = 0; i < 5; ++i) rec.push(encoded_event(i));
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].t_begin_ns, i);
    EXPECT_TRUE(event_consistent(events[i]));
  }
  EXPECT_EQ(rec.pushed(), 5u);
}

TEST(SpanRecorderTest, WrapKeepsNewestEventsAndTotalCount) {
  SpanRecorder rec(8);
  constexpr std::uint64_t kPushes = 100;
  for (std::uint64_t i = 0; i < kPushes; ++i) rec.push(encoded_event(i));
  EXPECT_EQ(rec.pushed(), kPushes);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The live window is the last capacity() pushes, oldest first.
  for (std::size_t j = 0; j < events.size(); ++j) {
    EXPECT_EQ(events[j].t_begin_ns, kPushes - 8 + j);
    EXPECT_TRUE(event_consistent(events[j]));
  }
}

TEST(SpanRecorderTest, ConcurrentSnapshotsSeeNoTornEvents) {
  SpanRecorder rec(64);
  constexpr std::uint64_t kMinPushes = 50'000;
  constexpr std::uint64_t kMaxPushes = 20'000'000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> observed{0};
  std::atomic<std::uint64_t> snapshots{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      // Loop until the writer is done AND this reader has seen at
      // least one event: an early snapshot can legitimately catch the
      // ring empty, and on a loaded 1-CPU host a starved reader might
      // not run again until after the writer's final push — a post-done
      // snapshot of the (now static, non-empty) ring always succeeds,
      // so the loop is bounded.
      std::uint64_t mine = 0;
      do {
        const auto events = rec.snapshot();
        mine += events.size();
        observed.fetch_add(events.size(), std::memory_order_relaxed);
        snapshots.fetch_add(1, std::memory_order_relaxed);
        for (const SpanEvent& ev : events)
          if (!event_consistent(ev))
            torn.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire) || mine == 0);
    });
  }
  // Keep pushing until both readers have snapshotted live — pushes are
  // far faster than thread spawn, so a fixed count alone can finish
  // before any reader starts (no overlap, nothing tested). Yield
  // periodically so the readers get scheduled against the spin.
  std::uint64_t pushed = 0;
  while (pushed < kMinPushes ||
         (snapshots.load(std::memory_order_relaxed) < 40 &&
          pushed < kMaxPushes)) {
    rec.push(encoded_event(pushed));
    ++pushed;
    if ((pushed & 0xFFF) == 0) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(observed.load(), 0u);
  EXPECT_EQ(rec.pushed(), pushed);
  EXPECT_GE(pushed, kMinPushes);
}

// ------------------------------------------------------ TraceSession

/// The session is a process-wide singleton; every test that touches it
/// starts from a cleared, disabled state and leaves it that way.
struct SessionGuard {
  SessionGuard() {
    TraceSession::instance().disable();
    TraceSession::instance().clear();
  }
  ~SessionGuard() {
    TraceSession::instance().disable();
    TraceSession::instance().clear();
  }
};

TEST(TraceSessionTest, DisabledSessionRecordsNothing) {
  SessionGuard guard;
  auto& session = TraceSession::instance();
  session.record_span(Stage::kAdmit, 10, 20, 1, 1);
  { telemetry::ScopedSpan span(Stage::kEncode, 2, 2); }
  EXPECT_TRUE(session.collect().empty());
}

TEST(TraceSessionTest, TracksNamedAndEventsOrdered) {
  SessionGuard guard;
  auto& session = TraceSession::instance();
  session.enable();
  session.set_thread_track("alpha");
  session.record_span(Stage::kAdmit, 100, 200, 1, 1);
  session.record_span(Stage::kAck, 300, 400, 1, 4);

  std::thread other([&] {
    session.set_thread_track("beta");
    session.record_span(Stage::kEncode, 150, 250, 2, 2);
  });
  other.join();
  session.disable();

  const auto tracks = session.collect();
  ASSERT_EQ(tracks.size(), 2u);
  const auto* alpha = &tracks[0];
  const auto* beta = &tracks[1];
  if (alpha->track != "alpha") std::swap(alpha, beta);
  ASSERT_EQ(alpha->track, "alpha");
  ASSERT_EQ(beta->track, "beta");
  ASSERT_EQ(alpha->events.size(), 2u);
  EXPECT_EQ(alpha->events[0].stage, Stage::kAdmit);
  EXPECT_EQ(alpha->events[1].stage, Stage::kAck);
  EXPECT_EQ(alpha->events[1].id_hi, 4u);
  ASSERT_EQ(beta->events.size(), 1u);
  EXPECT_EQ(beta->events[0].stage, Stage::kEncode);
}

TEST(TraceSessionTest, ClearDropsRecordersAndThreadsReRegister) {
  SessionGuard guard;
  auto& session = TraceSession::instance();
  session.enable();
  session.record_span(Stage::kAdmit, 1, 2, kNoRequestId, kNoRequestId);
  ASSERT_EQ(session.collect().size(), 1u);
  session.clear();
  EXPECT_TRUE(session.collect().empty());
  // The same thread records again after the wipe: a fresh recorder is
  // registered lazily (generation check), nothing is lost or doubled.
  session.record_span(Stage::kAck, 3, 4, kNoRequestId, kNoRequestId);
  const auto tracks = session.collect();
  ASSERT_EQ(tracks.size(), 1u);
  ASSERT_EQ(tracks[0].events.size(), 1u);
  EXPECT_EQ(tracks[0].events[0].stage, Stage::kAck);
}

TEST(TraceSessionTest, ChromeJsonSchema) {
  SessionGuard guard;
  auto& session = TraceSession::instance();
  session.enable();
  session.set_thread_track("shard-7");
  session.record_span(Stage::kEncode, 1000, 2500, 42, 42);
  session.record_span(Stage::kAck, 3000, 5000, 42, 45);
  session.record_span(Stage::kCheckpoint, 6000, 7000, kNoRequestId,
                      kNoRequestId);
  session.disable();

  const std::string json = session.render_chrome_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_TRUE(contains(json, "\"displayTimeUnit\":\"ns\""));
  // Process + thread metadata.
  EXPECT_TRUE(contains(json, "\"process_name\""));
  EXPECT_TRUE(contains(json, "ssma-serve"));
  EXPECT_TRUE(contains(json, "\"thread_name\""));
  EXPECT_TRUE(contains(json, "\"shard-7\""));
  // Complete events with stage names, microsecond ts/dur.
  EXPECT_TRUE(contains(json, "\"ph\":\"X\""));
  EXPECT_TRUE(contains(json, "\"name\":\"encode\""));
  EXPECT_TRUE(contains(json, "\"ts\":1.000"));
  EXPECT_TRUE(contains(json, "\"dur\":1.500"));
  // Request-id args: single id as "req", a range as lo/hi, none on the
  // unattributed checkpoint span.
  EXPECT_TRUE(contains(json, "\"req\":42"));
  EXPECT_TRUE(contains(json, "\"req_lo\":42"));
  EXPECT_TRUE(contains(json, "\"req_hi\":45"));
}

TEST(TraceSessionTest, TaggedSpansRoundTripAndRenderPerStageNames) {
  SessionGuard guard;
  auto& session = TraceSession::instance();
  session.enable();
  session.set_thread_track("shard-0");
  // The fused pipeline walk tags kEncode/kLutAccumulate/kEpilogue with
  // the pipeline stage index; the tag must survive the seqlock word
  // packing next to the stage enum and come back verbatim.
  session.record_span(Stage::kEpilogue, 1000, 2000, 7, 7, /*tag=*/0);
  session.record_span(Stage::kEpilogue, 3000, 4000, 7, 7, /*tag=*/1);
  session.record_span(Stage::kLutAccumulate, 5000, 6000, 7, 7,
                      /*tag=*/2);
  // Largest representable tag (24-bit field minus the sentinel).
  session.record_span(Stage::kEncode, 7000, 8000, 7, 7,
                      telemetry::kNoSpanTag - 1);
  session.record_span(Stage::kAck, 9000, 9500, 7, 7);  // untagged
  session.disable();

  const auto tracks = session.collect();
  ASSERT_EQ(tracks.size(), 1u);
  ASSERT_EQ(tracks[0].events.size(), 5u);
  EXPECT_EQ(tracks[0].events[0].tag, 0u);
  EXPECT_EQ(tracks[0].events[1].tag, 1u);
  EXPECT_EQ(tracks[0].events[2].tag, 2u);
  EXPECT_EQ(tracks[0].events[3].tag, telemetry::kNoSpanTag - 1);
  EXPECT_EQ(tracks[0].events[4].tag, telemetry::kNoSpanTag);

  // Chrome JSON names tagged spans "<stage>/<tag>" (one Perfetto
  // aggregation row per pipeline layer) and duplicates the tag as a
  // numeric arg; untagged spans keep the bare stage name.
  const std::string json = session.render_chrome_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_TRUE(contains(json, "\"name\":\"epilogue/0\""));
  EXPECT_TRUE(contains(json, "\"name\":\"epilogue/1\""));
  EXPECT_TRUE(contains(json, "\"name\":\"lut_accumulate/2\""));
  EXPECT_TRUE(contains(json, "\"stage_idx\":1"));
  EXPECT_TRUE(contains(json, "\"name\":\"ack\""));
  EXPECT_FALSE(contains(json, "\"name\":\"ack/"));
}

// --------------------------------------------------- kernel profiling

TEST(KernelProfileTest, DispatchCountersAccumulateAndReset) {
  telemetry::kernel_profile_reset();
  telemetry::record_lut_dispatch(2, 128, 4096, 1000);
  telemetry::record_lut_dispatch(2, 64, 2048, 500);
  telemetry::record_encode_dispatch(0, 128, 512, 300);
  const auto snap = telemetry::kernel_profile_snapshot();
  EXPECT_EQ(snap.lut[2].calls, 2u);
  EXPECT_EQ(snap.lut[2].rows, 192u);
  EXPECT_EQ(snap.lut[2].bytes, 6144u);
  EXPECT_EQ(snap.lut[2].ns, 1500u);
  EXPECT_EQ(snap.encode[0].calls, 1u);
  EXPECT_EQ(snap.lut[0].calls, 0u);
  telemetry::kernel_profile_reset();
  EXPECT_EQ(telemetry::kernel_profile_snapshot().lut[2].calls, 0u);
}

TEST(KernelProfileTest, RooflineEntryMath) {
  // 1e6 bytes in 1e-3 s = 1 GB/s achieved; 1 GHz scalar LUT peak is
  // 1 B/cycle = 1 GB/s, so frac_of_peak is exactly 1.
  const auto e = telemetry::make_roofline_entry(
      "lut_accumulate", /*tier=*/0, /*rows=*/1000, /*ncodebooks=*/32,
      /*nout=*/128, /*d=*/288, /*bytes_per_call=*/1e6,
      /*seconds_per_call=*/1e-3, /*cpu_ghz=*/1.0);
  EXPECT_EQ(e.kernel, "lut_accumulate");
  EXPECT_EQ(e.tier, "scalar");
  EXPECT_NEAR(e.achieved_gbps, 1.0, 1e-9);
  EXPECT_NEAR(e.theoretical_gbps,
              telemetry::lut_peak_bytes_per_cycle(0) * 1.0, 1e-9);
  EXPECT_NEAR(e.frac_of_peak, e.achieved_gbps / e.theoretical_gbps,
              1e-9);
  EXPECT_NEAR(e.bytes_per_row, 1000.0, 1e-9);
  EXPECT_NEAR(e.rows_per_s, 1e6, 1e-3);
  // MACs a dense rows x d x nout GEMM would have issued, per second.
  EXPECT_NEAR(e.macs_avoided_per_s, 1000.0 * 288.0 * 128.0 / 1e-3, 1.0);
  EXPECT_TRUE(json_balanced(e.json()));

  telemetry::RooflineReport report;
  report.cpu_ghz = 1.0;
  report.headline_cell = "rows=1000 ncb=32 nout=128";
  report.entries.push_back(e);
  const std::string json = report.json();
  EXPECT_TRUE(json_balanced(json));
  EXPECT_TRUE(contains(json, "\"cpu_ghz\""));
  EXPECT_TRUE(contains(json, "\"entries\""));
  EXPECT_TRUE(contains(json, "\"frac_of_peak\""));
}

TEST(KernelProfileTest, TierPeaksOrderedAndClockPositive) {
  // Wider SIMD can never have a lower modeled peak.
  EXPECT_GT(telemetry::lut_peak_bytes_per_cycle(1),
            telemetry::lut_peak_bytes_per_cycle(0));
  EXPECT_GT(telemetry::lut_peak_bytes_per_cycle(2),
            telemetry::lut_peak_bytes_per_cycle(1));
  EXPECT_GT(telemetry::encoder_peak_bytes_per_cycle(2),
            telemetry::encoder_peak_bytes_per_cycle(0));
  EXPECT_GT(telemetry::estimate_cpu_ghz(), 0.0);
}

// ----------------------------------------------- Prometheus exporter

void fill_deterministic(serve::Metrics& m) {
  m.set_batch_budget(64);
  m.record_batch("alpha", 12, {1500.0, 2500.0, 4000.0},
                 {9000.0, 12000.0, 20000.0});
  m.record_batch("alpha", 4, {800.0}, {5000.0});
  m.record_batch("beta", 3, {700.0}, {51000.0});
  m.record_batch("", 40, {2000.0, 3000.0}, {30000.0, 40000.0});
  m.record_journal_append(4000.0);
  m.record_journal_append(9000.0);
  // Two shadowed models: one healthy canary, one drifting.
  m.record_shadow("alpha", 8, 1, 37, 64000.0, 52000.0);
  m.record_shadow("alpha", 8, 0, 0, 61000.0, 50000.0);
  m.record_shadow("beta", 4, 4, 32767, 30000.0, 64000.0);
}

serve::PromGauges golden_gauges() {
  serve::PromGauges g;
  g.queue_depth = 3;
  g.queue_capacity = 256;
  g.workers = 4;
  g.worker_respawns = 1;
  g.trace_enabled = false;
  return g;
}

TEST(PrometheusTest, RenderMatchesGoldenFile) {
  // The kernel counters are process-global; zero them so the exposition
  // is identical no matter which tests (or build config) ran before.
  telemetry::kernel_profile_reset();
  serve::Metrics m;
  fill_deterministic(m);
  const std::string text = m.render_prometheus(golden_gauges());

  const std::string golden_path =
      std::string(SSMA_TEST_DATA_DIR) + "/prometheus_golden.txt";
  if (std::getenv("SSMA_REGEN_GOLDEN")) {
    std::ofstream os(golden_path);
    ASSERT_TRUE(os.is_open()) << golden_path;
    os << text;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream is(golden_path);
  ASSERT_TRUE(is.is_open())
      << golden_path
      << " missing — regenerate with SSMA_REGEN_GOLDEN=1";
  std::stringstream buf;
  buf << is.rdbuf();
  EXPECT_EQ(text, buf.str())
      << "Prometheus exposition drifted from the golden file. If the "
         "change is intentional, regenerate with SSMA_REGEN_GOLDEN=1.";
}

TEST(PrometheusTest, ExpositionShape) {
  telemetry::kernel_profile_reset();
  serve::Metrics m;
  fill_deterministic(m);
  const std::string text = m.render_prometheus(golden_gauges());

  // Counters and gauges (7 requests across the 4 recorded batches).
  EXPECT_TRUE(contains(text, "ssma_requests_total 7\n"));
  EXPECT_TRUE(contains(text, "ssma_tokens_total 59\n"));
  EXPECT_TRUE(contains(text, "ssma_batches_total 4\n"));
  EXPECT_TRUE(contains(text, "ssma_queue_depth 3\n"));
  EXPECT_TRUE(contains(text, "ssma_queue_capacity 256\n"));
  EXPECT_TRUE(contains(text, "ssma_workers 4\n"));
  EXPECT_TRUE(contains(text, "ssma_worker_respawns_total 1\n"));
  EXPECT_TRUE(contains(text, "ssma_trace_enabled 0\n"));
  EXPECT_TRUE(contains(text, "ssma_batch_budget_tokens 64\n"));
  // Histograms: cumulative buckets end at +Inf == count.
  EXPECT_TRUE(
      contains(text, "ssma_request_latency_seconds_bucket{le=\"+Inf\"} 7"));
  EXPECT_TRUE(contains(text, "ssma_request_latency_seconds_count 7"));
  EXPECT_TRUE(contains(text, "ssma_journal_append_seconds_count 2"));
  // Batch-occupancy histogram: 4 batches, tokens 12/4/3/40 -> two in
  // le=4, one in le=16, one in le=64.
  EXPECT_TRUE(contains(text, "ssma_batch_tokens_bucket{le=\"4\"} 2\n"));
  EXPECT_TRUE(contains(text, "ssma_batch_tokens_bucket{le=\"+Inf\"} 4\n"));
  EXPECT_TRUE(contains(text, "ssma_batch_tokens_count 4\n"));
  // Per-model slices with queue/service split.
  EXPECT_TRUE(
      contains(text, "ssma_model_requests_total{model=\"alpha\"} 4\n"));
  EXPECT_TRUE(
      contains(text, "ssma_model_requests_total{model=\"beta\"} 1\n"));
  EXPECT_TRUE(contains(
      text, "ssma_model_service_seconds_count{model=\"alpha\"} 4"));
  EXPECT_TRUE(contains(text, "quantile=\"0.99\""));
  // Shadow-rollout block: per-model mirrored rows, drift and the
  // live/shadow latency split.
  EXPECT_TRUE(
      contains(text, "ssma_shadow_rows_total{model=\"alpha\"} 16\n"));
  EXPECT_TRUE(
      contains(text, "ssma_shadow_batches_total{model=\"alpha\"} 2\n"));
  EXPECT_TRUE(
      contains(text, "ssma_shadow_drift_rows_total{model=\"alpha\"} 1\n"));
  EXPECT_TRUE(
      contains(text, "ssma_shadow_drift_rows_total{model=\"beta\"} 4\n"));
  EXPECT_TRUE(
      contains(text, "ssma_shadow_max_abs_drift{model=\"beta\"} 32767\n"));
  EXPECT_TRUE(contains(
      text, "ssma_shadow_seconds_total{model=\"alpha\",side=\"live\"} "));
  EXPECT_TRUE(contains(
      text, "ssma_shadow_seconds_total{model=\"beta\",side=\"shadow\"} "));
  // Kernel tiers statically enumerated even when all-zero.
  EXPECT_TRUE(
      contains(text, "ssma_kernel_lut_calls_total{tier=\"scalar\"} 0"));
  EXPECT_TRUE(
      contains(text, "ssma_kernel_lut_calls_total{tier=\"avx2\"} 0"));
  EXPECT_TRUE(
      contains(text, "ssma_kernel_encode_bytes_total{tier=\"ssse3\"} 0"));
}

TEST(PrometheusTest, ShadowSlicesRoundTripThroughRestore) {
  telemetry::kernel_profile_reset();
  serve::Metrics m;
  fill_deterministic(m);
  const serve::MetricsSnapshot snap = m.snapshot();
  ASSERT_EQ(snap.shadow.size(), 2u);

  // Shadow slices are exact counters, so unlike the latency histograms
  // they restore losslessly (this is what checkpoint restore calls).
  serve::Metrics restored;
  restored.restore(snap.requests, snap.tokens, snap.batches, snap.shadow);
  const serve::MetricsSnapshot rs = restored.snapshot();
  ASSERT_EQ(rs.shadow.size(), snap.shadow.size());
  for (std::size_t i = 0; i < snap.shadow.size(); ++i) {
    EXPECT_EQ(rs.shadow[i].model, snap.shadow[i].model);
    EXPECT_EQ(rs.shadow[i].rows, snap.shadow[i].rows);
    EXPECT_EQ(rs.shadow[i].batches, snap.shadow[i].batches);
    EXPECT_EQ(rs.shadow[i].drift_rows, snap.shadow[i].drift_rows);
    EXPECT_EQ(rs.shadow[i].max_abs_drift, snap.shadow[i].max_abs_drift);
    EXPECT_DOUBLE_EQ(rs.shadow[i].live_ns_sum, snap.shadow[i].live_ns_sum);
    EXPECT_DOUBLE_EQ(rs.shadow[i].shadow_ns_sum,
                     snap.shadow[i].shadow_ns_sum);
  }

  // The restored exposition renders a byte-identical shadow block.
  const auto shadow_block = [](const std::string& text) {
    const std::size_t begin = text.find("# HELP ssma_shadow_rows_total");
    const std::size_t end = text.find("# HELP ssma_kernel_lut_calls_total");
    EXPECT_NE(begin, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    return text.substr(begin, end - begin);
  };
  EXPECT_EQ(shadow_block(m.render_prometheus(golden_gauges())),
            shadow_block(restored.render_prometheus(golden_gauges())));
}

TEST(PrometheusTest, LiveServerExposition) {
  SessionGuard guard;
  serve::ServeFixture f = serve::ServeFixture::make();
  serve::ServerOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 64;
  serve::InferenceServer server(opts);
  server.register_model("m", f.amm);
  std::vector<std::future<serve::InferenceResult>> futs;
  for (std::size_t i = 0; i < 8; ++i)
    futs.push_back(server.submit("m@latest", f.codes_for(i), 1));
  for (auto& fut : futs) fut.get();
  // Drain + join before scraping: record_batch runs after the futures
  // resolve, so a pre-shutdown scrape could miss the final batch.
  server.shutdown();

  const std::string text = server.render_prometheus();
  EXPECT_TRUE(contains(text, "ssma_requests_total 8\n"));
  EXPECT_TRUE(contains(text, "ssma_queue_capacity 64\n"));
  EXPECT_TRUE(contains(text, "ssma_workers 2\n"));
  EXPECT_TRUE(contains(text, "ssma_trace_enabled 0\n"));
  EXPECT_TRUE(
      contains(text, "ssma_model_requests_total{model=\"m\"} 8\n"));
}

// ------------------------------------------- served lifecycle spans

#if defined(SSMA_TRACE_ENABLED)

/// Two chained stages so the engine records epilogue (stage-handoff)
/// spans, plus an input pool quantized for stage 1.
struct PipelineFixture {
  maddness::Amm s1, s2;
  maddness::QuantizedActivations pool;

  static PipelineFixture make(std::uint64_t seed) {
    Rng rng(seed);
    maddness::Config c1;
    c1.ncodebooks = 4;
    const std::size_t d = static_cast<std::size_t>(c1.total_dims());
    Matrix calib(256, d);
    for (std::size_t i = 0; i < calib.size(); ++i)
      calib.data()[i] = static_cast<float>(rng.next_double(0, 220));
    Matrix w1(d, d);
    for (std::size_t i = 0; i < w1.size(); ++i)
      w1.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
    Matrix mid;
    PipelineFixture f;
    f.s1 = engine::train_chained_stage(c1, calib, w1, &mid);
    maddness::Config c2;
    c2.ncodebooks = 4;
    Matrix w2(d, 8);
    for (std::size_t i = 0; i < w2.size(); ++i)
      w2.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
    f.s2 = engine::train_chained_stage(c2, mid, w2, nullptr);

    Matrix fresh(64, d);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      fresh.data()[i] = static_cast<float>(rng.next_double(0, 220));
    f.pool =
        maddness::quantize_activations(fresh, f.s1.activation_scale());
    return f;
  }

  std::vector<std::uint8_t> codes_for(std::size_t id) const {
    const std::size_t r = id % pool.rows;
    return std::vector<std::uint8_t>(pool.row(r),
                                     pool.row(r) + pool.cols);
  }
};

TEST(ServeTelemetryTest, LifecycleSpansUnderDelayChaos) {
  const std::uint64_t seed = serve::test_seed();
  SCOPED_TRACE(serve::seed_trace(seed));
  SessionGuard guard;
  auto& session = TraceSession::instance();
  session.enable();
  // Track names stick to the thread; name the client explicitly so a
  // name set by an earlier test in this binary can't masquerade as a
  // shard track.
  session.set_thread_track("client");

  PipelineFixture f = PipelineFixture::make(seed);
  serve::TmpDir dir("telemetry");
  serve::recovery::RequestJournal journal(dir.file("journal.ssjl"));
  serve::recovery::CheckpointManager ckpts(dir.str());
  serve::recovery::FaultInjector inject(seed);
  // Deterministic timing chaos across the queue-push and batch-formed
  // sites: spans must nest and order correctly however the scheduler
  // lands.
  inject.arm_random_delays(6, 40, std::chrono::microseconds(250));

  constexpr std::size_t kRequests = 96;
  {
    serve::ServerOptions opts;
    opts.num_workers = 3;
    opts.queue_capacity = 128;
    opts.batcher.max_batch_tokens = 8;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.checkpoint_every = 32;
    opts.recovery.fault = &inject;
    serve::InferenceServer server(opts);
    server.register_pipeline("pipe", {&f.s1, &f.s2});
    std::vector<std::future<serve::InferenceResult>> futs;
    for (std::size_t i = 0; i < kRequests; ++i)
      futs.push_back(server.submit("pipe@latest", f.codes_for(i), 1));
    for (auto& fut : futs) fut.get();
    server.shutdown();
  }
  session.disable();

  const auto tracks = session.collect();
  ASSERT_FALSE(tracks.empty());

  std::set<Stage> stages_seen;
  std::set<std::string> shard_tracks;
  std::vector<bool> queue_wait_covered(kRequests, false);
  std::vector<bool> ack_covered(kRequests, false);
  for (const auto& track : tracks) {
    ASSERT_EQ(track.pushed, track.events.size())
        << "ring wrapped; default capacity should hold this workload";
    std::uint64_t prev_end = 0;
    for (const SpanEvent& ev : track.events) {
      stages_seen.insert(ev.stage);
      EXPECT_LE(ev.t_begin_ns, ev.t_end_ns);
      // Pushes happen at span close on the owner thread, so per-track
      // end times are monotonic — the property Perfetto track
      // reconstruction relies on.
      EXPECT_GE(ev.t_end_ns, prev_end);
      prev_end = ev.t_end_ns;
      if (ev.id_lo == kNoRequestId) continue;
      EXPECT_LE(ev.id_lo, ev.id_hi);
      EXPECT_LT(ev.id_hi, kRequests);
      if (ev.stage == Stage::kQueueWait) {
        EXPECT_EQ(ev.id_lo, ev.id_hi) << "queue_wait is per-request";
        queue_wait_covered[ev.id_lo] = true;
      }
      if (ev.stage == Stage::kAck)
        for (std::uint64_t id = ev.id_lo; id <= ev.id_hi; ++id)
          ack_covered[id] = true;
      // The fused walk tags its kernel-stage spans with the pipeline
      // stage index; a 2-stage pipe only has boundary 0.
      if (ev.stage == Stage::kEpilogue) EXPECT_EQ(ev.tag, 0u);
    }
    if (track.track.rfind("shard-", 0) == 0) {
      shard_tracks.insert(track.track);
      bool has_exec_stage = false;
      for (const SpanEvent& ev : track.events)
        if (ev.stage == Stage::kEncode ||
            ev.stage == Stage::kLutAccumulate)
          has_exec_stage = true;
      EXPECT_TRUE(has_exec_stage)
          << track.track << " recorded no kernel-stage spans";
    }
  }

  // Every lifecycle stage the pipeline exercises must appear.
  for (Stage st :
       {Stage::kAdmit, Stage::kQueueWait, Stage::kBatchForm,
        Stage::kEncode, Stage::kLutAccumulate, Stage::kEpilogue,
        Stage::kAck, Stage::kJournalAppend, Stage::kCheckpoint,
        Stage::kSwap})
    EXPECT_TRUE(stages_seen.count(st))
        << "missing stage " << telemetry::stage_name(st);

  // Span-tree completeness: every request has its own queue-wait span
  // and is covered by some ack-range span.
  for (std::size_t id = 0; id < kRequests; ++id) {
    EXPECT_TRUE(queue_wait_covered[id]) << "request " << id;
    EXPECT_TRUE(ack_covered[id]) << "request " << id;
  }
  ASSERT_FALSE(shard_tracks.empty());

  // The same run renders as loadable Chrome JSON.
  const std::string json = session.render_chrome_json();
  EXPECT_TRUE(json_balanced(json));
  // Epilogue spans come from the fused plan walk and carry the
  // pipeline stage index as their tag: a 2-stage pipe has exactly one
  // interior boundary, so every epilogue span renders as "epilogue/0".
  EXPECT_TRUE(contains(json, "\"name\":\"epilogue/0\""));
  EXPECT_FALSE(contains(json, "\"name\":\"epilogue\""));
  EXPECT_TRUE(contains(json, "\"name\":\"queue_wait\""));
  // Shard tracks render under their thread names. Which shards got work
  // is up to the scheduler, so check one that recorded spans.
  EXPECT_TRUE(contains(json, "\"" + *shard_tracks.begin() + "\""));
}

TEST(ServeTelemetryTest, ReplayedRequestsProduceSpans) {
  SessionGuard guard;
  auto& session = TraceSession::instance();

  serve::ServeFixture f = serve::ServeFixture::make();
  serve::ServerOptions opts;
  opts.num_workers = 2;
  serve::InferenceServer server(opts);
  server.register_model("m", f.amm);

  // Journal records as a crashed run would have left them: admitted,
  // never acknowledged.
  std::vector<serve::recovery::AcceptedRecord> records;
  for (std::uint64_t id = 100; id < 105; ++id) {
    serve::recovery::AcceptedRecord rec;
    rec.id = id;
    rec.rows = 1;
    rec.codes = f.codes_for(id);
    rec.model = "m";
    rec.model_version = 1;
    records.push_back(std::move(rec));
  }

  session.enable();
  auto futs = server.replay(records);
  for (auto& fut : futs) fut.get();
  server.shutdown();
  session.disable();

  std::set<Stage> stages_seen;
  std::set<std::uint64_t> replayed_ids;
  for (const auto& track : session.collect())
    for (const SpanEvent& ev : track.events) {
      stages_seen.insert(ev.stage);
      if (ev.stage == Stage::kQueueWait) replayed_ids.insert(ev.id_lo);
    }
  EXPECT_TRUE(stages_seen.count(Stage::kReplay));
  EXPECT_TRUE(stages_seen.count(Stage::kAdmit));
  EXPECT_TRUE(stages_seen.count(Stage::kAck));
  // Replayed spans carry the original journal ids, not fresh ones.
  EXPECT_EQ(replayed_ids,
            (std::set<std::uint64_t>{100, 101, 102, 103, 104}));
}

#endif  // SSMA_TRACE_ENABLED

// ------------------------------------------------- macro compile gate

TEST(TraceMacroTest, MacrosCompileAndAreInertWhenDisabled) {
  SessionGuard guard;  // session disabled
  // In the OFF build these expand to ((void)0); in the ON build the
  // disabled session makes them no-ops. Either way: no spans.
  SSMA_TRACE_SET_THREAD("macro-test");
  {
    SSMA_TRACE_REQUEST_SCOPE(1, 4);
    SSMA_TRACE_SPAN(kEncode);
    SSMA_TRACE_SPAN_IDS(kAck, 1, 4);
  }
  SSMA_TRACE_RECORD(kAdmit, std::uint64_t{0}, std::uint64_t{5},
                    std::uint64_t{1}, std::uint64_t{1});
  EXPECT_TRUE(TraceSession::instance().collect().empty());
}

// ------------------------------------------------------ sim exporter

TEST(SimTraceTest, ChromeJsonFromSignalRecords) {
  sim::TraceSink sink;
  sink.record(0, "lut.req", "idle");
  sink.record(1'000'000, "lut.req", "fire");
  sink.record(500'000, "enc.state", "busy");
  sink.record(3'000'000, "lut.req", "idle");

  const std::string json = sink.render_chrome_json("macro");
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  // One named track per signal.
  EXPECT_TRUE(contains(json, "\"thread_name\""));
  EXPECT_TRUE(contains(json, "\"lut.req\""));
  EXPECT_TRUE(contains(json, "\"enc.state\""));
  EXPECT_TRUE(contains(json, "\"macro\""));
  // Held values become complete events named by the value; the final
  // record of each signal is an instant.
  EXPECT_TRUE(contains(json, "\"ph\":\"X\""));
  EXPECT_TRUE(contains(json, "\"name\":\"fire\""));
  EXPECT_TRUE(contains(json, "\"ph\":\"i\""));
  EXPECT_TRUE(contains(json, "\"name\":\"busy\""));
  // 1e6 ps = 1 us.
  EXPECT_TRUE(contains(json, "\"ts\":1.000"));
}

}  // namespace
}  // namespace ssma
