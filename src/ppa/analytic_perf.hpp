// Closed-form performance/efficiency model of the proposed macro. It
// composes the same calibrated delay/energy/area primitives the
// event-driven simulator uses, so the two agree (cross-validated in
// tests). Benches use it for wide sweeps; the event simulator provides
// the ground truth on specific workloads.
//
// Conventions follow the paper:
//   * 1 lookup == 18 ops (9 MACs).
//   * frequency == 1 / pipeline-interval == 1 / block latency.
//   * "best"/"worst" refer to the data-dependent BDT encoder latency.
//   * Reported average efficiency = mean of best-case and worst-case
//     performance (the black dashed line of Fig. 6).
#pragma once

#include "ppa/area_model.hpp"
#include "ppa/delay_model.hpp"
#include "ppa/energy_model.hpp"
#include "ppa/operating_point.hpp"

namespace ssma::ppa {

struct MacroConfig {
  int ndec = 16;
  int ns = 32;
};

struct PerfPoint {
  double freq_mhz = 0.0;        ///< token rate
  double throughput_tops = 0.0;
  double tops_per_w = 0.0;
  double tops_per_mm2 = 0.0;
  double energy_per_op_fj = 0.0;
  double power_uw = 0.0;
};

struct PerfEnvelope {
  PerfPoint best;   ///< all encoder comparisons resolve at the MSB
  PerfPoint worst;  ///< all encoder comparisons ripple to full depth
  double avg_tops_per_w = 0.0;    ///< mean of best/worst efficiency
  double avg_tops_per_mm2 = 0.0;  ///< mean of best/worst performance / area
  double core_mm2 = 0.0;
};

struct EnergyBreakdownPerOp {
  double decoder_fj = 0.0;  ///< SRAM + CSA + latch + col RCD (+ leak share)
  double encoder_fj = 0.0;
  double other_fj = 0.0;    ///< control, handshake, RCA/out-reg, rest of leak
  double total_fj() const { return decoder_fj + encoder_fj + other_fj; }
  double decoder_share() const { return decoder_fj / total_fj(); }
  double encoder_share() const { return encoder_fj / total_fj(); }
};

class AnalyticPerf {
 public:
  AnalyticPerf(MacroConfig cfg, OperatingPoint op);

  const MacroConfig& cfg() const { return cfg_; }

  /// Ops produced per pipeline token (all NS blocks working concurrently).
  long long ops_per_token() const;

  /// Block latency for a uniform per-level DLC resolution depth.
  double block_latency_ns(int dlc_depth) const;

  /// Mean of the best- and worst-case block latencies: the pipeline
  /// interval under average data.
  double avg_block_latency_ns() const;

  /// Perf for a given steady-state pipeline interval [ns] (tokens spaced
  /// by the bottleneck block latency).
  PerfPoint perf_at_interval(double interval_ns) const;

  /// Best/worst envelope plus paper-style averages.
  PerfEnvelope envelope() const;

  /// Energy-per-op decomposition at the *average* interval, average data —
  /// the Fig. 7A view.
  EnergyBreakdownPerOp energy_breakdown() const;

  /// Total dynamic energy of one full pipeline token (all blocks), with
  /// average-data assumptions [fJ].
  double token_dynamic_fj() const;

 private:
  MacroConfig cfg_;
  OperatingPoint op_;
  DelayModel delay_;
  EnergyModel energy_;
  AreaModel area_;
};

}  // namespace ssma::ppa
