// Load generation against an InferenceServer, the two classic arrival
// models: open-loop Poisson (requests arrive at a fixed offered rate
// whether or not the server keeps up — latency includes queueing and
// admission backpressure) and closed-loop (a fixed number of synchronous
// clients, each submitting its next request when the previous returns).
// Payloads are drawn deterministically from a quantized activation pool,
// so every run is bit-reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "maddness/quantize.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"

namespace ssma::serve {

struct LoadSpec {
  std::size_t total_requests = 1000;
  std::size_t rows_per_request = 1;
  /// Model refs the stream round-robins over by request id (request i
  /// targets model_refs[i % size]) — one ref for a single-model stream,
  /// several for the multi-model interleave the registry-dispatch bench
  /// uses. Must not be empty.
  std::vector<std::string> model_refs;
  /// Drives the Poisson arrival stream — and, when a run injects
  /// faults, the same seed should be handed to the FaultInjector so
  /// one number reproduces the whole scenario from a failure log.
  std::uint64_t seed = 0x5eed5e12;
};

/// Client-side view of a finished load run.
struct LoadReport {
  std::uint64_t seed = 0;  ///< echoed from LoadSpec; lands in the JSON
  std::size_t completed = 0;
  std::size_t tokens = 0;
  double wall_seconds = 0.0;
  /// True for open-loop runs; closed-loop runs have no offered rate, and
  /// json() emits `"offered_rps": null` for them instead of a bogus 0.
  bool open_loop = false;
  double offered_rps = 0.0;  ///< open-loop target; meaningless otherwise
  double achieved_rps = 0.0;
  double tokens_per_sec = 0.0;
  // Client-observed end-to-end latency (intended arrival / submit time
  // -> result fulfilled), in milliseconds.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;

  std::string json() const;
};

class LoadGenerator {
 public:
  /// `pool` must outlive the generator; request payloads are row slices
  /// of it (wrapping around), so pool.cols must equal server.cols().
  LoadGenerator(const maddness::QuantizedActivations& pool,
                const LoadSpec& spec);

  /// Deterministic payload of request `id` (tests recompute expected
  /// outputs from this).
  std::vector<std::uint8_t> request_codes(std::uint64_t id) const;
  /// First pool row used by request `id`.
  std::size_t first_row(std::uint64_t id) const;
  /// Model ref request `id` targets.
  const std::string& model_ref(std::uint64_t id) const;

  const LoadSpec& spec() const { return spec_; }
  std::uint64_t seed() const { return spec_.seed; }

  /// Open-loop: Poisson arrivals at `requests_per_sec`. Latency is
  /// measured from each request's *intended* arrival instant, so time
  /// spent blocked on a full queue is charged to the server.
  LoadReport run_open_loop(InferenceServer& server,
                           double requests_per_sec);

  /// Closed-loop: `concurrency` clients submitting back-to-back.
  LoadReport run_closed_loop(InferenceServer& server, int concurrency);

 private:
  const maddness::QuantizedActivations& pool_;
  LoadSpec spec_;
};

}  // namespace ssma::serve
