// tcp_open: open-loop Poisson arrivals of small requests over loopback
// TCP into NetServer -> InferenceServer (kernel backend, write-ahead
// journal, checkpoint cadence). Each request is 16 rows of one
// 32-codebook dense layer (288 inputs, 128 outputs). Latency is timed
// from each request's scheduled send time, so a generator stall counts
// against the program, and the generator reports how late it ran.
//
// Untraced run: one-second open-loop chunks at a fixed rate (latency),
// interleaved with short closed-loop bursts that keep the server
// saturated (throughput). Interleaving spreads every figure over the
// whole run, so a slow spell of the host lands on all of them a little
// instead of on one fully.
// Traced run: the fixed rate untraced (overhead baseline), then traced
// (per-layer numbers).
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/server.hpp"
#include "trace_stats.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ssma::Matrix;
using ssma::Rng;
using ssma::maddness::Amm;
namespace net = ssma::net;
namespace serve = ssma::serve;
namespace fs = std::filesystem;

constexpr int kCodebooks = 32;
constexpr std::size_t kOutputs = 128;
constexpr std::size_t kRowsPerRequest = 16;
constexpr std::size_t kPool = 256;  // distinct request payloads
constexpr int kConnections = 1;     // one sender + one receiver thread each
constexpr int kWorkers = 2;
// Rare enough that checkpoint stalls touch well under 1% of requests at
// the fixed rate, so the tail reads queueing and not which window
// happened to hold a checkpoint.
constexpr std::size_t kCheckpointEvery = 32768;
// The model is trained from this fixed seed; --seed varies the request
// payloads and the arrival process only.
constexpr std::uint64_t kModelSeed = 42;

// On a 4-vCPU Xeon VM the knee lies between 8k and 16k req/s; the fixed
// rate sits well below it, where the batcher's wait and the journal still
// show in the latency.
constexpr double kFixedRps = 2000.0;
constexpr double kFixedShare = 0.8;     // of --seconds
constexpr double kChunkSeconds = 1.0;   // one fixed-rate chunk
// Throughput comes from closed-loop bursts of a fixed number of requests
// with kBurstWindow in flight on one connection. The rate a burst
// completes is one sample; rows_per_s is their 90th percentile. A
// search for the highest open-loop rate meeting a p99 limit was tried
// first: on the shared 4-vCPU VM the knee moved 1.3x between runs with
// the host's speed and 5-run spreads reached 31%, above the largest
// bound the benchmark may set. A fixed count, not a fixed time, keeps
// the journal each compaction reads into memory the same size on every
// run, so peak_rss_mb does not follow host speed.
constexpr std::size_t kBurstRequests = 2000;
constexpr std::size_t kBurstWindow = 64;
constexpr std::size_t kChunksPerBlock = 6;
// Tail latency is taken per window of this many seconds and the median
// window reported: the 10-30 ms stalls of a shared VM hit a few windows,
// not the typical one.
constexpr double kWindowSeconds = 1.0;

struct Rig {
  Amm amm;
  double rel_err = 0.0;  // reference decode of the pool vs float x * W
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::vector<std::int16_t>> expected;
  std::string dir;
  std::unique_ptr<serve::recovery::RequestJournal> journal;
  std::unique_ptr<serve::recovery::CheckpointManager> checkpoints;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<net::NetServer> front;
  std::vector<std::unique_ptr<net::NetClient>> clients;
  std::uint64_t next_corr = 0;

  void tear_down() {
    for (auto& c : clients) c->close();
    clients.clear();
    if (front) front->stop();
    if (server) server->shutdown();
    front.reset();
    server.reset();
    checkpoints.reset();
    journal.reset();
    if (!dir.empty()) fs::remove_all(dir);
  }
};

void set_up(Rig& rig, const Args& args, int attempt) {
  Rng model_rng(kModelSeed);
  ssma::maddness::Config cfg;
  cfg.ncodebooks = kCodebooks;
  const std::size_t d = static_cast<std::size_t>(cfg.total_dims());
  Matrix train(1024, d);
  for (std::size_t i = 0; i < train.size(); ++i)
    train.data()[i] = static_cast<float>(model_rng.next_double(0, 200));
  Matrix w(d, kOutputs);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(model_rng.next_gaussian(0, 0.08));
  rig.amm = Amm::train(cfg, train, w);

  Rng rng(args.seed);
  // Payloads and their reference decode, computed once for the pool so
  // checking a response is a compare, not a decode.
  Matrix x(kPool * kRowsPerRequest, d);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 200));
  const ssma::maddness::QuantizedActivations q =
      ssma::maddness::quantize_activations(x, rig.amm.activation_scale());
  const std::vector<std::int16_t> ref = rig.amm.apply_int16_reference(q);
  Matrix exact;
  ssma::gemm(x, w, exact);
  rig.rel_err = ssma::frobenius_diff(rig.amm.dequantize_result(ref, x.rows()),
                                     exact) /
                ssma::frobenius(exact);
  const std::size_t in_len = kRowsPerRequest * d;
  const std::size_t out_len = kRowsPerRequest * kOutputs;
  rig.payloads.clear();
  rig.expected.clear();
  for (std::size_t p = 0; p < kPool; ++p) {
    rig.payloads.emplace_back(q.codes.begin() + p * in_len,
                              q.codes.begin() + (p + 1) * in_len);
    rig.expected.emplace_back(ref.begin() + p * out_len,
                              ref.begin() + (p + 1) * out_len);
  }

  rig.dir = fs::absolute(fs::path(args.workdir) /
                         ("tcp_open-" + std::to_string(attempt)))
                .string();
  fs::remove_all(rig.dir);
  fs::create_directories(rig.dir);
  rig.journal = std::make_unique<serve::recovery::RequestJournal>(
      rig.dir + "/journal.ssj");
  rig.checkpoints =
      std::make_unique<serve::recovery::CheckpointManager>(rig.dir + "/ckpt");

  serve::ServerOptions opts;
  opts.num_workers = kWorkers;
  opts.queue_capacity = 4096;
  opts.engine.backend = ssma::engine::Backend::kKernel;
  opts.batcher.max_batch_tokens = 256;
  opts.recovery.journal = rig.journal.get();
  opts.recovery.checkpoints = rig.checkpoints.get();
  opts.recovery.checkpoint_every = kCheckpointEvery;
  rig.server = std::make_unique<serve::InferenceServer>(opts);
  rig.server->register_model("dense", rig.amm);
  rig.front = std::make_unique<net::NetServer>(*rig.server,
                                               net::NetServerOptions{});
  // The open-loop connections, then the one the bursts use.
  for (int c = 0; c <= kConnections; ++c) {
    rig.clients.push_back(std::make_unique<net::NetClient>());
    rig.clients.back()->connect("127.0.0.1", rig.front->port());
  }
}

/// One fixed-rate open-loop window, summed over the connections.
struct Phase {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<double> lat_us;   // scheduled send -> verified response
  std::vector<double> due_s;    // scheduled send time of each lat_us entry
  std::vector<double> late_us;  // actual send - scheduled send
  std::vector<double> send_us;  // time blocked in NetClient::send
  std::size_t attempted = 0;
  std::size_t failed = 0;  // non-ok status, mismatch or no response
  std::size_t mismatches = 0;
  std::size_t backlog = 0;  // requests outstanding when sending ended

  /// p90 and p99 of each kWindowSeconds window (by scheduled send time),
  /// in microseconds.
  void window_tails_us(std::vector<double>* p90s,
                       std::vector<double>* p99s) const {
    const std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds / kWindowSeconds));
    std::vector<std::vector<double>> per(n);
    for (std::size_t i = 0; i < lat_us.size(); ++i)
      per[std::min(n - 1, static_cast<std::size_t>(due_s[i] /
                                                   kWindowSeconds))]
          .push_back(lat_us[i]);
    for (std::vector<double>& w : per) {
      if (w.empty()) continue;
      const Summary s = summarize(std::move(w));
      p90s->push_back(s.p90);
      p99s->push_back(s.p99);
    }
  }
  /// Appends `next`, run right after this phase, as its continuation.
  void append(const Phase& next) {
    for (std::size_t i = 0; i < next.lat_us.size(); ++i) {
      lat_us.push_back(next.lat_us[i]);
      due_s.push_back(seconds + next.due_s[i]);
    }
    late_us.insert(late_us.end(), next.late_us.begin(), next.late_us.end());
    send_us.insert(send_us.end(), next.send_us.begin(), next.send_us.end());
    rate = next.rate;
    seconds += next.seconds;
    attempted += next.attempted;
    failed += next.failed;
    mismatches += next.mismatches;
    backlog = std::max(backlog, next.backlog);
  }
};

Phase run_phase(Rig& rig, double rate, double seconds,
                std::uint64_t stream_seed, bool corrupt) {
  struct Conn {
    std::vector<std::int64_t> sched_ns;  // offset from the phase start
    std::vector<std::uint32_t> pool_idx;
    std::vector<double> lat_us, late_us, send_us;
    std::vector<net::RpcRequest> reqs;  // one template per payload
    std::atomic<std::size_t> sent{0}, received{0};
    std::size_t failed = 0, mismatches = 0, backlog = 0;
  };
  std::vector<Conn> conns(kConnections);
  const double rate_per_conn = rate / kConnections;
  for (int c = 0; c < kConnections; ++c) {
    Conn& cn = conns[static_cast<std::size_t>(c)];
    Rng rng(stream_seed * 1000003 + static_cast<std::uint64_t>(c));
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.next_double()) / rate_per_conn;
      if (t >= seconds) break;
      cn.sched_ns.push_back(static_cast<std::int64_t>(t * 1e9));
      cn.pool_idx.push_back(static_cast<std::uint32_t>(rng.next_below(kPool)));
    }
    cn.lat_us.assign(cn.sched_ns.size(), -1.0);
    cn.late_us.resize(cn.sched_ns.size());
    cn.send_us.resize(cn.sched_ns.size());
    cn.reqs.resize(kPool);
    for (std::size_t p = 0; p < kPool; ++p) {
      cn.reqs[p].model_ref = "dense";
      cn.reqs[p].rows = kRowsPerRequest;
      cn.reqs[p].codes = rig.payloads[p];
    }
  }
  const std::uint64_t corr_base = rig.next_corr;
  rig.next_corr += 1u << 24;
  const auto start = SteadyClock::now() + std::chrono::milliseconds(2);

  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    Conn& cn = conns[static_cast<std::size_t>(c)];
    net::NetClient& cli = *rig.clients[static_cast<std::size_t>(c)];
    threads.emplace_back([&cn, &cli, start, corr_base] {
      prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);  // ~1 us wake-up slack
      for (std::size_t i = 0; i < cn.sched_ns.size(); ++i) {
        const auto due = start + std::chrono::nanoseconds(cn.sched_ns[i]);
        std::this_thread::sleep_until(due);
        const auto t0 = SteadyClock::now();
        cn.late_us[i] = std::chrono::duration<double, std::micro>(t0 - due)
                            .count();
        net::RpcRequest& req = cn.reqs[cn.pool_idx[i]];
        req.correlation_id = corr_base + i;
        cli.send(req);
        cn.send_us[i] = std::chrono::duration<double, std::micro>(
                            SteadyClock::now() - t0)
                            .count();
        cn.sent.fetch_add(1, std::memory_order_release);
      }
      cn.backlog = cn.sent.load() - cn.received.load();
    });
    threads.emplace_back([&cn, &cli, &rig, start, corr_base, corrupt, c] {
      for (std::size_t k = 0; k < cn.sched_ns.size(); ++k) {
        net::RpcResponse resp;
        if (!cli.recv_response(&resp)) break;
        const auto t = SteadyClock::now();
        cn.received.fetch_add(1, std::memory_order_release);
        const std::uint64_t i = resp.correlation_id - corr_base;
        if (i >= cn.sched_ns.size() || cn.lat_us[i] >= 0.0) {
          ++cn.failed;  // unknown or duplicate correlation id
          continue;
        }
        if (corrupt && c == 0 && k == 0 && !resp.outputs.empty())
          resp.outputs[0] ^= 1;
        if (resp.status != net::kStatusOk) {
          ++cn.failed;
        } else if (resp.outputs != rig.expected[cn.pool_idx[i]]) {
          ++cn.failed;
          ++cn.mismatches;
        } else {
          const auto due = start + std::chrono::nanoseconds(cn.sched_ns[i]);
          cn.lat_us[i] =
              std::chrono::duration<double, std::micro>(t - due).count();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Phase ph;
  ph.rate = rate;
  ph.seconds = seconds;
  for (Conn& cn : conns) {
    for (std::size_t i = 0; i < cn.lat_us.size(); ++i)
      if (cn.lat_us[i] >= 0.0) {
        ph.lat_us.push_back(cn.lat_us[i]);
        ph.due_s.push_back(static_cast<double>(cn.sched_ns[i]) / 1e9);
      }
    ph.late_us.insert(ph.late_us.end(), cn.late_us.begin(), cn.late_us.end());
    ph.send_us.insert(ph.send_us.end(), cn.send_us.begin(), cn.send_us.end());
    ph.attempted += cn.sched_ns.size();
    // Responses that never arrived count as failed.
    ph.failed += cn.failed + (cn.sched_ns.size() - cn.received.load());
    ph.mismatches += cn.mismatches;
    ph.backlog += cn.backlog;
  }
  const Summary lat = summarize(ph.lat_us);
  std::fprintf(stderr,
               "tcp_open phase: %.0f req/s x %.2f s  n=%zu p50=%.3f ms "
               "p90=%.3f ms p99=%.3f ms max=%.3f ms  late_max=%.0f us "
               "backlog=%zu failed=%zu\n",
               rate, seconds, lat.n, lat.p50 / 1e3, lat.p90 / 1e3,
               lat.p99 / 1e3, lat.max / 1e3, summarize(ph.late_us).max,
               ph.backlog, ph.failed);
  // Keep the journal from growing across windows: everything so far is
  // acknowledged, so compaction drops it (not timed).
  rig.server->compact_journal();
  return ph;
}

/// One closed-loop burst on its own connection: kBurstWindow requests
/// in flight until kBurstRequests have been answered, each checked.
struct Burst {
  double seconds = 0.0;  // first send -> last response
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
  double rows_per_s() const {
    return static_cast<double>((attempted - failed) * kRowsPerRequest) /
           seconds;
  }
};

Burst run_burst(Rig& rig, std::uint64_t stream_seed) {
  net::NetClient& cli = *rig.clients.back();
  Rng rng(stream_seed * 1000003);
  std::vector<std::uint32_t> pool_idx(kBurstRequests);
  for (std::uint32_t& p : pool_idx)
    p = static_cast<std::uint32_t>(rng.next_below(kPool));
  net::RpcRequest req;
  req.model_ref = "dense";
  req.rows = kRowsPerRequest;
  const std::uint64_t corr_base = rig.next_corr;
  rig.next_corr += 1u << 24;
  std::vector<bool> answered(kBurstRequests, false);

  Burst b;
  b.attempted = kBurstRequests;
  std::size_t sent = 0, received = 0;
  const auto send_next = [&] {
    req.codes = rig.payloads[pool_idx[sent]];
    req.correlation_id = corr_base + sent;
    cli.send(req);
    ++sent;
  };
  const auto t0 = SteadyClock::now();
  while (sent < kBurstWindow) send_next();
  for (; received < kBurstRequests; ++received) {
    net::RpcResponse resp;
    if (!cli.recv_response(&resp)) break;
    const std::uint64_t i = resp.correlation_id - corr_base;
    if (i >= kBurstRequests || answered[i] ||
        resp.status != net::kStatusOk) {
      ++b.failed;  // unknown or duplicate id, or refused
    } else if (resp.outputs != rig.expected[pool_idx[i]]) {
      ++b.failed;
      ++b.mismatches;
    }
    if (i < kBurstRequests) answered[i] = true;
    if (sent < kBurstRequests) send_next();
  }
  b.seconds = seconds_between(t0, SteadyClock::now());
  b.failed += kBurstRequests - received;  // never answered
  rig.server->compact_journal();  // as after every phase (not timed)
  return b;
}

void account(Report& rep, const Phase& ph) {
  rep.count_ops(ph.attempted, ph.failed);
  rep.mismatch(ph.mismatches);
}

void account(Report& rep, const Burst& b) {
  rep.count_ops(b.attempted, b.failed);
  rep.mismatch(b.mismatches);
}

/// p50 over every sample of the chunks; p90 is the median of the p90s
/// of the chunks' kWindowSeconds windows.
void report_latency(Report& rep, const std::vector<Phase>& chunks) {
  std::vector<double> all, p90s, p99s;
  for (const Phase& ch : chunks) {
    all.insert(all.end(), ch.lat_us.begin(), ch.lat_us.end());
    ch.window_tails_us(&p90s, &p99s);
  }
  const Summary s = summarize(all);
  const std::size_t per = s.n / std::max<std::size_t>(p99s.size(), 1);
  rep.metric("lat_p50_ms", s.p50 / 1e3, "ms",
             fmt("n=%zu at %.0f req/s offered, %zu chunks of %.1f s", s.n,
                 chunks.front().rate, chunks.size(), kChunkSeconds));
  rep.metric("lat_p90_ms", median(p90s) / 1e3, "ms",
             fmt("median of %zu window p90s, ~%zu samples each; median "
                 "window p99 %.3f ms (~%zu beyond each); p99 of all n=%zu: "
                 "%.3f ms",
                 p90s.size(), per, median(p99s) / 1e3, per / 100, s.n,
                 s.p99 / 1e3));
}

}  // namespace

void run_tcp_open(const Args& args, Report& rep) {
  // Set-ups run back to back, each torn down before the next, and the
  // last one is measured. A set-up held alive next to the serving rig
  // would double the resident set and make peak_rss_mb read set-up
  // transients instead of serving.
  std::vector<double> setup_s;
  for (int k = 1; k < kSetups; ++k) {
    Rig spare;
    timed(setup_s, [&] { set_up(spare, args, k); });
    spare.tear_down();
  }
  Rig rig;
  timed(setup_s, [&] { set_up(rig, args, 0); });
  // Warm-up: fault in buffers and let lazy set-up finish (not reported).
  account(rep, run_phase(rig, kFixedRps, 0.3, args.seed + 7, false));

  if (!args.trace) {
    const std::size_t chunks = std::max<std::size_t>(
        1, static_cast<std::size_t>(kFixedShare * args.seconds /
                                    kChunkSeconds));
    const double burst_budget_s = (1.0 - kFixedShare) * args.seconds;
    std::vector<Phase> fixed;
    std::vector<double> burst_rates;
    double burst_s = 0.0;
    std::uint64_t stream = args.seed * 1000;
    // Warm-up at saturation: checked, but its rate is not reported.
    account(rep, run_burst(rig, ++stream));
    for (std::size_t i = 0; i < chunks; ++i) {
      fixed.push_back(run_phase(rig, kFixedRps, kChunkSeconds, ++stream,
                                args.corrupt && i == 0));
      // Bursts fill their share of the time in blocks after every
      // kChunksPerBlock chunks, so most chunks follow a chunk and not a
      // saturated server.
      if ((i + 1) % kChunksPerBlock != 0 && i + 1 != chunks) continue;
      while (burst_s < burst_budget_s * static_cast<double>(i + 1) /
                           static_cast<double>(chunks)) {
        const Burst b = run_burst(rig, ++stream);
        account(rep, b);
        burst_rates.push_back(b.rows_per_s());
        burst_s += b.seconds;
      }
    }
    rig.tear_down();
    for (const Phase& ph : fixed) account(rep, ph);
    report_common(rep, setup_s);
    rep.metric("rows_per_s", rate_p90(burst_rates), "rows/s",
               fmt("p90 of %zu closed-loop bursts of %zu requests x %zu "
                   "rows, %zu in flight (median %.0f); client side",
                   burst_rates.size(), kBurstRequests, kRowsPerRequest,
                   kBurstWindow, median(burst_rates)));
    report_latency(rep, fixed);
    rep.metric("approx_rel_err", rig.rel_err, "fraction",
               fmt("reference decode (every response bit-exact to it) vs "
                   "float x * W, %zu x %zu rows",
                   kPool, kRowsPerRequest));
    return;
  }

  // Traced run. Per-layer numbers come from the traced window; the
  // untraced window before it is the overhead baseline. Each window is
  // run in chunks, so the journal compacts as often as in the untraced
  // run.
  const std::size_t chunks = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.seconds / 2 / kChunkSeconds));
  const auto window = [&](std::uint64_t stream, bool corrupt) {
    Phase w = run_phase(rig, kFixedRps, kChunkSeconds, stream, corrupt);
    for (std::size_t i = 1; i < chunks; ++i)
      w.append(run_phase(rig, kFixedRps, kChunkSeconds, stream + i, false));
    return w;
  };
  const Phase plain = window(args.seed * 1000 + 1, args.corrupt);
  const net::NetServerStats net0 = rig.front->stats();
  const serve::AdmissionStats adm0 = rig.front->admission_stats();
  const serve::MetricsSnapshot m0 = rig.server->metrics();
  trace_begin();
  const Phase traced = window(args.seed * 1000 + 1 + chunks, false);
  const TraceCapture cap = trace_end();
  const net::NetServerStats net1 = rig.front->stats();
  const serve::AdmissionStats adm1 = rig.front->admission_stats();
  const serve::MetricsSnapshot m1 = rig.server->metrics();
  for (const Phase* p : {&plain, &traced}) account(rep, *p);

  const Summary e2e = summarize(traced.lat_us);
  const Summary read = summarize(cap.durations_us(Stage::kNetRead, "net-loop"));
  const Summary read_self = summarize(cap.self_us(
      Stage::kNetRead, {Stage::kAdmit, Stage::kAdmitReject}));
  const Summary write =
      summarize(cap.durations_us(Stage::kNetWrite, "net-loop"));
  const Summary send = summarize(traced.send_us);
  const double frames =
      static_cast<double>(net1.frames_received - net0.frames_received);
  rep.metric("net.read_us.p50", read.p50, "us",
             fmt("kNetRead spans (one per socket read burst), n=%zu", read.n));
  rep.metric("net.read_us.p99", read.p99, "us", fmt("n=%zu", read.n));
  rep.metric("net.write_us.p50", write.p50, "us",
             fmt("kNetWrite spans on the event loop, n=%zu", write.n));
  rep.metric("net.write_us.p99", write.p99, "us", fmt("n=%zu", write.n));
  rep.metric("net.client_send_block_us.p50", send.p50, "us",
             fmt("around NetClient::send, n=%zu", send.n));
  rep.metric("net.client_send_block_us.p99", send.p99, "us",
             fmt("n=%zu", send.n));
  rep.metric("net.read_pauses",
             static_cast<double>(net1.read_pauses - net0.read_pauses),
             "count", "NetServer::stats over the traced window");
  const double net_bytes = static_cast<double>(
      net1.bytes_read - net0.bytes_read + net1.bytes_written -
      net0.bytes_written);
  rep.metric("net.bytes_per_req", frames > 0 ? net_bytes / frames : 0.0, "B",
             "bytes read + written per request frame");

  std::uint64_t rejects = 0;
  for (std::size_t r = 0; r < serve::kNumRejectReasons; ++r)
    rejects += adm1.rejects[r] - adm0.rejects[r];
  rep.metric("admission.admitted",
             static_cast<double>(adm1.admitted - adm0.admitted), "count",
             "admission_stats over the traced window");
  rep.metric("admission.rejects", static_cast<double>(rejects), "count",
             "admission_stats over the traced window");

  const std::size_t batches = m1.batches - m0.batches;
  const double mean_batch =
      batches ? static_cast<double>(m1.tokens - m0.tokens) /
                    static_cast<double>(batches)
              : 0.0;
  const Summary queue = summarize(cap.durations_us(Stage::kQueueWait));
  const Summary form = summarize(cap.durations_us(Stage::kBatchForm));
  const Summary service = summarize(cap.service_us());
  const Summary ack = summarize(cap.durations_us(Stage::kAck));
  const Summary admit = summarize(cap.durations_us(Stage::kAdmit));
  rep.metric("serve.queue_wait_us.p50", queue.p50, "us",
             fmt("n=%zu", queue.n));
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
  rep.metric("serve.admit_us", admit.p50, "us",
             fmt("p50 of kAdmit spans (journal append inside), n=%zu",
                 admit.n));
  rep.metric("serve.server_tokens_per_s", m1.tokens_per_sec, "tokens/s",
             fmt("server's own counter: %zu tokens over %.3f s since server "
                 "start (base differs from the client-side rates)",
                 m1.tokens, m1.wall_seconds));

  const Summary journal = summarize(cap.durations_us(Stage::kJournalAppend));
  const Summary ckpt = summarize(cap.durations_us(Stage::kCheckpoint));
  rep.metric("journal.append_us.p50", journal.p50, "us",
             fmt("accept + completion records, n=%zu", journal.n));
  rep.metric("journal.append_us.p99", journal.p99, "us",
             fmt("n=%zu", journal.n));
  rep.metric("journal.appends", static_cast<double>(journal.n), "count",
             "kJournalAppend spans in the traced window");
  rep.metric("checkpoint.write_us", ckpt.p50, "us",
             fmt("p50 of kCheckpoint spans, n=%zu (cadence %zu requests + "
                 "one per compaction)",
                 ckpt.n, kCheckpointEvery));
  rep.metric("checkpoint.count", static_cast<double>(ckpt.n), "count",
             "kCheckpoint spans in the traced window");

  const Summary enc = summarize(cap.per_batch_us(Stage::kEncode));
  const Summary lut = summarize(cap.per_batch_us(Stage::kLutAccumulate));
  const Summary epi = summarize(cap.per_batch_us(Stage::kEpilogue));
  rep.metric("engine.encode_us", enc.p50, "us",
             fmt("p50 per batch, n=%zu", enc.n));
  rep.metric("engine.lut_accumulate_us", lut.p50, "us",
             fmt("p50 per batch, n=%zu", lut.n));
  rep.metric("engine.epilogue_us", epi.p50, "us",
             fmt("p50 per batch, n=%zu (single-stage model: none)", epi.n));
  ssma::maddness::QuantizedActivations pool;
  pool.rows = kRowsPerRequest;
  pool.cols = rig.payloads[0].size() / kRowsPerRequest;
  pool.scale = rig.amm.activation_scale();
  pool.codes = rig.payloads[0];
  report_kernel_rates(rep, rig.amm, pool,
                      static_cast<std::size_t>(std::lround(mean_batch)),
                      rig.amm.activation_scale());
  rig.tear_down();

  const Summary plain_lat = summarize(plain.lat_us);
  rep.metric("trace.overhead_frac",
             plain_lat.p50 > 0 ? e2e.p50 / plain_lat.p50 - 1.0 : 0.0,
             "fraction",
             fmt("p50 traced %.1f us over untraced %.1f us - 1",
                 e2e.p50, plain_lat.p50));
  rep.metric("trace.spans_lost", static_cast<double>(cap.lost()), "count");
  const double stage_sum = send.p50 + read_self.p50 + admit.p50 + queue.p50 +
                           enc.p50 + lut.p50 + epi.p50 + ack.p50 + write.p50;
  rep.metric("unattributed_frac",
             e2e.p50 > 0 ? (e2e.p50 - stage_sum) / e2e.p50 : 0.0, "fraction",
             fmt("(e2e p50 %.1f us - stage p50 sum %.1f us) / e2e p50; "
                 "stages: client_send net_read(self) admit queue_wait encode "
                 "lut epilogue ack net_write",
                 e2e.p50, stage_sum));

  const Summary gen = summarize(traced.late_us);
  rep.metric("gen.late_p99_us", gen.p99, "us",
             fmt("actual minus scheduled send, traced window, n=%zu", gen.n));
  rep.metric("gen.late_max_us", gen.max, "us", fmt("n=%zu", gen.n));
}

}  // namespace perfbench
