// batch_closed: a few in-process clients, each keeping a small window
// of large requests in flight through InferenceServer::submit, against
// the 3-stage fused pipeline model (32 codebooks, 288-wide hidden
// layers, 128 outputs). No network and no journal: encode, LUT
// accumulation and the fused epilogue do most of the work, and the
// batcher always has a backlog.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "engine/pipeline.hpp"
#include "serve/server.hpp"
#include "trace_stats.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ssma::Matrix;
using ssma::Rng;
using ssma::maddness::Amm;
using ssma::maddness::QuantizedActivations;
namespace serve = ssma::serve;

constexpr int kCodebooks = 32;
constexpr std::size_t kHidden = 288;  // kCodebooks x 9 dims
constexpr std::size_t kOutputs = 128;
constexpr std::size_t kRowsPerRequest = 256;
constexpr std::size_t kPool = 16;      // distinct request payloads
constexpr std::size_t kEvalEntries = 8;  // payloads scored against float
// The model is the committed fused cell's: trained from this fixed seed,
// so --seed varies the requests only.
constexpr std::uint64_t kModelSeed = 777;
constexpr int kClients = 3;            // fewer than nproc
constexpr int kWindow = 2;             // requests in flight per client
constexpr int kWorkers = 2;
constexpr std::size_t kMaxBatchTokens = 1024;

Matrix uniform(Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.next_double(0, 200));
  return m;
}

Matrix gaussian(Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
  return m;
}

void relu(Matrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = std::max(0.0f, m.data()[i]);
}

struct Rig {
  std::vector<Amm> stages;
  std::vector<QuantizedActivations> pool;
  std::vector<std::vector<std::int16_t>> expected;
  std::vector<Matrix> exact;  // float chain, first kEvalEntries payloads
  std::unique_ptr<serve::InferenceServer> server;
  ssma::engine::ModelRef model;
};

/// Reference decode of the 3-stage chain, independent of the packed
/// kernels and the fused plan: the naive per-stage reference plus the
/// materializing stage handoff.
std::vector<std::int16_t> chain_reference(const std::vector<Amm>& st,
                                          const QuantizedActivations& q) {
  std::vector<std::int16_t> acc = st[0].apply_int16_reference(q);
  for (std::size_t s = 1; s < st.size(); ++s) {
    const QuantizedActivations next =
        ssma::engine::stage_handoff(st[s - 1], st[s], acc, q.rows);
    acc = st[s].apply_int16_reference(next);
  }
  return acc;
}

void set_up(Rig& rig, std::uint64_t seed) {
  rig = Rig{};
  Rng model_rng(kModelSeed);
  ssma::maddness::Config cfg;
  cfg.ncodebooks = kCodebooks;
  const Matrix calib = uniform(model_rng, 384, kHidden);
  const std::vector<Matrix> w = {gaussian(model_rng, kHidden, kHidden),
                                 gaussian(model_rng, kHidden, kHidden),
                                 gaussian(model_rng, kHidden, kOutputs)};
  Matrix in = calib, next;
  for (std::size_t s = 0; s < w.size(); ++s) {
    const bool last = s + 1 == w.size();
    rig.stages.push_back(ssma::engine::train_chained_stage(
        cfg, in, w[s], last ? nullptr : &next));
    in = next;
  }

  Rng rng(seed);
  for (std::size_t p = 0; p < kPool; ++p) {
    const Matrix x = uniform(rng, kRowsPerRequest, kHidden);
    rig.pool.push_back(ssma::maddness::quantize_activations(
        x, rig.stages[0].activation_scale()));
    rig.expected.push_back(chain_reference(rig.stages, rig.pool.back()));
    if (p < kEvalEntries) {
      Matrix h = x, y;
      for (std::size_t s = 0; s < w.size(); ++s) {
        ssma::gemm(h, w[s], y);
        if (s + 1 < w.size()) relu(y);
        h = y;
      }
      rig.exact.push_back(h);
    }
  }

  serve::ServerOptions opts;
  opts.num_workers = kWorkers;
  opts.queue_capacity = 256;
  opts.engine.backend = ssma::engine::Backend::kKernel;
  opts.engine.fused_pipeline = true;
  opts.batcher.max_batch_tokens = kMaxBatchTokens;
  rig.server = std::make_unique<serve::InferenceServer>(opts);
  rig.server->register_pipeline(
      "mlp", {&rig.stages[0], &rig.stages[1], &rig.stages[2]});
  rig.model = rig.server->registry().resolve("mlp@latest");
}

// Throughput and p90 are taken per slice of completion time: a slow
// spell of the host then decides a few slices, not the run.
constexpr double kSliceSeconds = 0.5;

struct Window {
  std::vector<double> lat_us;     // submit -> completion, per request
  std::vector<double> submit_us;  // time inside submit()
  std::vector<double> done_s;     // completion time of each lat_us entry
  std::size_t rows = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
  double seconds = 0.0;  // first submit -> last completion

  /// Verified rows per second in each whole kSliceSeconds slice.
  std::vector<double> slice_rates() const {
    const std::size_t n = static_cast<std::size_t>(seconds / kSliceSeconds);
    if (n == 0) return {static_cast<double>(rows) / seconds};
    std::vector<double> slice(n, 0.0);
    for (double t : done_s) {
      const std::size_t i = static_cast<std::size_t>(t / kSliceSeconds);
      if (i < n) slice[i] += kRowsPerRequest / kSliceSeconds;
    }
    return slice;
  }
  /// p90 latency of each whole slice.
  std::vector<double> slice_p90s() const {
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds / kSliceSeconds));
    std::vector<std::vector<double>> per(n);
    for (std::size_t i = 0; i < lat_us.size(); ++i)
      per[std::min(n - 1, static_cast<std::size_t>(done_s[i] /
                                                   kSliceSeconds))]
          .push_back(lat_us[i]);
    std::vector<double> p90s;
    for (std::vector<double>& s : per)
      if (!s.empty()) p90s.push_back(summarize(std::move(s)).p90);
    return p90s;
  }
};

/// Closed-loop clients until `seconds` pass; every output is checked
/// against the reference chain.
Window measure(Rig& rig, std::uint64_t seed, double seconds, bool corrupt) {
  struct Slot {
    SteadyClock::time_point t_submit{};
    std::atomic<std::int64_t> t_done_ns{0};
    std::future<serve::InferenceResult> fut;
    std::size_t pool_idx = 0;
  };
  struct ClientOut {
    Window w;
    SteadyClock::time_point last_done{};
  };
  std::vector<ClientOut> outs(kClients);
  const auto start = SteadyClock::now();
  const auto deadline =
      start + std::chrono::duration_cast<SteadyClock::duration>(
                  std::chrono::duration<double>(seconds));

  const auto client = [&](int c) {
    Rng rng(seed * 7919 + static_cast<std::uint64_t>(c));
    ClientOut& out = outs[static_cast<std::size_t>(c)];
    Slot slots[kWindow];
    const auto submit = [&](Slot& s) {
      s.pool_idx = rng.next_below(kPool);
      std::vector<std::uint8_t> codes = rig.pool[s.pool_idx].codes;
      serve::SubmitExtras extras;
      std::atomic<std::int64_t>* done = &s.t_done_ns;
      extras.on_done = [done](const serve::InferenceResult*,
                              const std::exception_ptr&) {
        done->store(SteadyClock::now().time_since_epoch().count(),
                    std::memory_order_release);
      };
      s.t_submit = SteadyClock::now();
      s.fut = rig.server->submit(rig.model, std::move(codes),
                                 kRowsPerRequest, std::move(extras));
      out.w.submit_us.push_back(
          std::chrono::duration<double, std::micro>(SteadyClock::now() -
                                                    s.t_submit)
              .count());
      ++out.w.attempted;
    };
    for (Slot& s : slots) submit(s);
    bool first = true;
    for (bool more = true; more;) {
      more = false;
      for (Slot& s : slots) {
        if (!s.fut.valid()) continue;
        try {
          serve::InferenceResult r = s.fut.get();
          const SteadyClock::time_point t_done{SteadyClock::duration{
              s.t_done_ns.load(std::memory_order_acquire)}};
          if (corrupt && c == 0 && first) r.outputs[0] ^= 1;
          first = false;
          if (r.outputs != rig.expected[s.pool_idx]) {
            ++out.w.mismatches;
            ++out.w.failed;
          } else {
            out.w.rows += r.rows;
            out.w.lat_us.push_back(
                std::chrono::duration<double, std::micro>(t_done - s.t_submit)
                    .count());
            out.w.done_s.push_back(seconds_between(start, t_done));
            out.last_done = std::max(out.last_done, t_done);
          }
        } catch (const std::exception&) {
          ++out.w.failed;
        }
        if (SteadyClock::now() < deadline) {
          submit(s);
          more = true;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();

  Window w;
  SteadyClock::time_point last = start;
  for (ClientOut& o : outs) {
    w.lat_us.insert(w.lat_us.end(), o.w.lat_us.begin(), o.w.lat_us.end());
    w.submit_us.insert(w.submit_us.end(), o.w.submit_us.begin(),
                       o.w.submit_us.end());
    w.done_s.insert(w.done_s.end(), o.w.done_s.begin(), o.w.done_s.end());
    w.rows += o.w.rows;
    w.attempted += o.w.attempted;
    w.failed += o.w.failed;
    w.mismatches += o.w.mismatches;
    last = std::max(last, o.last_done);
  }
  w.seconds = seconds_between(start, last);
  return w;
}

/// Serves the scored payloads once, checks them, and returns the
/// relative Frobenius error of the served, dequantized outputs against
/// the float chain. Also warms the workers up.
double served_rel_err(Rig& rig, std::size_t* mismatches) {
  double diff2 = 0.0, ref2 = 0.0;
  for (std::size_t p = 0; p < kEvalEntries; ++p) {
    serve::InferenceResult r =
        rig.server->submit(rig.model, rig.pool[p].codes, kRowsPerRequest)
            .get();
    if (r.outputs != rig.expected[p]) ++*mismatches;
    const Matrix y = rig.stages.back().dequantize_result(r.outputs, r.rows);
    const double d = ssma::frobenius_diff(y, rig.exact[p]);
    const double e = ssma::frobenius(rig.exact[p]);
    diff2 += d * d;
    ref2 += e * e;
  }
  return ref2 > 0.0 ? std::sqrt(diff2 / ref2) : 0.0;
}

}  // namespace

void run_batch_closed(const Args& args, Report& rep) {
  std::vector<double> setup_s;
  Rig rig;
  timed(setup_s, [&] { set_up(rig, args.seed); });
  std::size_t eval_mismatches = 0;
  const double rel_err = served_rel_err(rig, &eval_mismatches);
  rep.count_ops(kEvalEntries, eval_mismatches);
  rep.mismatch(eval_mismatches);

  const auto account = [&](const Window& w) {
    rep.count_ops(w.attempted, w.failed);
    rep.mismatch(w.mismatches);
  };

  if (!args.trace) {
    std::vector<double> lat_us, slices, p90s;
    std::size_t rows = 0;
    for (int k = 0; k < kSetups; ++k) {
      const Window w = measure(rig, args.seed + k, args.seconds / kSetups,
                               args.corrupt && k == 0);
      account(w);
      lat_us.insert(lat_us.end(), w.lat_us.begin(), w.lat_us.end());
      const std::vector<double> s = w.slice_rates();
      slices.insert(slices.end(), s.begin(), s.end());
      const std::vector<double> p = w.slice_p90s();
      p90s.insert(p90s.end(), p.begin(), p.end());
      rows += w.rows;
      if (k + 1 < kSetups) {
        Rig spare;
        timed(setup_s, [&] { set_up(spare, args.seed); });
        spare.server->shutdown();
      }
    }
    rig.server->shutdown();
    report_common(rep, setup_s);
    const Summary lat = summarize(lat_us);
    rep.metric("rows_per_s", rate_p90(slices), "rows/s",
               fmt("p90 of %zu slices of %.1f s (median %.0f); %zu rows "
                   "verified, client side",
                   slices.size(), kSliceSeconds, median(slices), rows));
    rep.metric("lat_p50_ms", lat.p50 / 1e3, "ms",
               fmt("n=%zu requests of %zu rows", lat.n, kRowsPerRequest));
    rep.metric("lat_p90_ms", median(p90s) / 1e3, "ms",
               fmt("median of %zu slice p90s, ~%zu samples each; p99 of all "
                   "n=%zu: %.3f ms",
                   p90s.size(), lat.n / std::max<std::size_t>(p90s.size(), 1),
                   lat.n, lat.p99 / 1e3));
    rep.metric("approx_rel_err", rel_err, "fraction",
               fmt("served vs float chain, %zu x %zu rows",
                   kEvalEntries, kRowsPerRequest));
    return;
  }

  // Traced run: an untraced half for the overhead baseline, then the
  // traced half the per-layer numbers come from.
  const Window plain =
      measure(rig, args.seed, args.seconds / 2, args.corrupt);
  const serve::MetricsSnapshot before = rig.server->metrics();
  trace_begin();
  const Window traced = measure(rig, args.seed + 1, args.seconds / 2, false);
  const TraceCapture cap = trace_end();
  const serve::MetricsSnapshot after = rig.server->metrics();
  account(plain);
  account(traced);

  const std::size_t batches = after.batches - before.batches;
  const double mean_batch =
      batches ? static_cast<double>(after.tokens - before.tokens) /
                    static_cast<double>(batches)
              : 0.0;
  const Summary queue = summarize(cap.durations_us(Stage::kQueueWait));
  const Summary form = summarize(cap.durations_us(Stage::kBatchForm));
  const Summary service = summarize(cap.service_us());
  const Summary ack = summarize(cap.durations_us(Stage::kAck));
  const Summary submit = summarize(traced.submit_us);
  const Summary admit = summarize(cap.durations_us(Stage::kAdmit));
  const Summary enc = summarize(cap.per_batch_us(Stage::kEncode));
  const Summary lut = summarize(cap.per_batch_us(Stage::kLutAccumulate));
  const Summary epi = summarize(cap.per_batch_us(Stage::kEpilogue));
  const Summary e2e = summarize(traced.lat_us);

  rep.metric("serve.queue_wait_us.p50", queue.p50, "us", fmt("n=%zu", queue.n));
  rep.metric("serve.queue_wait_us.p99", queue.p99, "us", fmt("n=%zu", queue.n));
  rep.metric("serve.batch_form_us", form.p50, "us", fmt("p50, n=%zu", form.n));
  rep.metric("serve.batch_tokens_mean", mean_batch, "rows",
             fmt("server counters over the traced window, %zu batches",
                 batches));
  rep.metric("serve.batches", static_cast<double>(batches), "count",
             "server counters over the traced window");
  rep.metric("serve.service_us.p50", service.p50, "us",
             fmt("pickup -> ack end per batch, n=%zu", service.n));
  rep.metric("serve.service_us.p99", service.p99, "us",
             fmt("n=%zu", service.n));
  rep.metric("serve.ack_us", ack.p50, "us", fmt("p50, n=%zu", ack.n));
  rep.metric("serve.admit_us", admit.p50, "us", fmt("p50, n=%zu", admit.n));
  rep.metric("serve.submit_us", submit.p50, "us",
             fmt("p50 around InferenceServer::submit, n=%zu", submit.n));
  rep.metric("serve.server_tokens_per_s", after.tokens_per_sec, "tokens/s",
             fmt("server's own counter: %zu tokens over %.3f s since server "
                 "start (base differs from rows_per_s)",
                 after.tokens, after.wall_seconds));
  rep.metric("engine.encode_us", enc.p50, "us",
             fmt("p50 per batch, all stage tags, n=%zu", enc.n));
  rep.metric("engine.lut_accumulate_us", lut.p50, "us",
             fmt("p50 per batch, final stage, n=%zu", lut.n));
  rep.metric("engine.epilogue_us", epi.p50, "us",
             fmt("p50 per batch, fused accumulate + handoff of interior "
                 "stages, n=%zu",
                 epi.n));

  report_kernel_rates(rep, rig.stages[0], rig.pool.front(),
                      static_cast<std::size_t>(std::lround(mean_batch)),
                      rig.stages[1].activation_scale());
  rig.server->shutdown();

  rep.metric("trace.overhead_frac",
             trace_overhead(rate_p90(plain.slice_rates()),
                            rate_p90(traced.slice_rates())),
             "fraction", "rows/s untraced over traced - 1");
  rep.metric("trace.spans_lost", static_cast<double>(cap.lost()), "count");
  const double stage_sum =
      submit.p50 + queue.p50 + enc.p50 + lut.p50 + epi.p50 + ack.p50;
  rep.metric("unattributed_frac",
             e2e.p50 > 0 ? (e2e.p50 - stage_sum) / e2e.p50 : 0.0, "fraction",
             fmt("(e2e p50 %.1f us - stage p50 sum %.1f us) / e2e p50; "
                 "stages: submit queue_wait encode lut epilogue ack",
                 e2e.p50, stage_sum));
  report_sim_layer(args, rep);
}

}  // namespace perfbench
