// Power/performance/area report assembled from a simulator run (or the
// analytic model), in the units the paper reports: MHz, TOPS, TOPS/W,
// TOPS/mm^2, fJ/op, mm^2 — plus the Fig. 7-style breakdown shares.
#pragma once

#include <string>
#include <vector>

#include "ppa/analytic_perf.hpp"
#include "sim/macro.hpp"

namespace ssma::core {

struct PpaReport {
  // Configuration echo.
  int ndec = 0;
  int ns = 0;
  double vdd = 0.0;
  std::string corner;

  // Performance.
  double freq_mhz = 0.0;
  double throughput_tops = 0.0;
  double token_interval_ns = 0.0;

  // Efficiency.
  double tops_per_w = 0.0;
  double tops_per_mm2 = 0.0;
  double energy_per_op_fj = 0.0;

  // Area.
  double core_mm2 = 0.0;
  long long sram_bits = 0;

  // Fig. 7-style shares.
  double energy_decoder_share = 0.0;
  double energy_encoder_share = 0.0;
  double area_decoder_share = 0.0;

  // Bookkeeping.
  long long total_ops = 0;
  double duration_ns = 0.0;
  std::uint64_t events = 0;

  std::string render() const;
};

/// Builds a report from an event-simulator run. A run whose tokens
/// produced no output interval (a lone token per tile) takes the
/// closed-form average-data pipeline interval as its rate.
PpaReport make_report(const sim::MacroConfig& cfg,
                      const sim::MacroRunStats& stats, long long ntokens);

/// Builds a report from the closed-form model at a given DLC depth
/// assumption (1 = best, 8 = worst, or the average envelope if depth==0).
PpaReport make_analytic_report(const ppa::MacroConfig& cfg,
                               const ppa::OperatingPoint& op, int dlc_depth);

/// Merges per-shard reports from a pool of macros running in parallel
/// (serve::InferenceServer workers): ops/events/area/SRAM add, aggregate
/// throughput is the sum of shard throughputs, per-op energy and the
/// breakdown shares are recomputed from pooled totals, and duration is
/// the longest shard (wall-clock view of a parallel run). Shards with no
/// completed work contribute only their silicon. Empty input -> default
/// report.
PpaReport merge_reports(const std::vector<PpaReport>& parts);

/// Merges reports of consecutive runs on the SAME macro (a serving
/// shard's batch history): ops/events add, durations add, silicon stays
/// that of one macro, rates combine ops-weighted, per-op energy and
/// shares recompute from pooled totals. Empty input -> default report.
PpaReport merge_sequential_reports(const std::vector<PpaReport>& parts);

}  // namespace ssma::core
