#include "ppa/analytic_perf.hpp"

#include "util/check.hpp"

namespace ssma::ppa {

AnalyticPerf::AnalyticPerf(MacroConfig cfg, OperatingPoint op)
    : cfg_(cfg), op_(op), delay_(op), energy_(op) {
  SSMA_CHECK(cfg.ndec >= 1 && cfg.ns >= 1);
}

long long AnalyticPerf::ops_per_token() const {
  return static_cast<long long>(cfg_.ns) * cfg_.ndec * kOpsPerLookup;
}

double AnalyticPerf::block_latency_ns(int dlc_depth) const {
  const int depths[kTreeLevels] = {dlc_depth, dlc_depth, dlc_depth,
                                   dlc_depth};
  return delay_.encoder_ns(depths) + delay_.decoder_path_ns(cfg_.ndec);
}

double AnalyticPerf::avg_block_latency_ns() const {
  return 0.5 * (block_latency_ns(1) + block_latency_ns(kDlcBits));
}

double AnalyticPerf::token_dynamic_fj() const {
  const int avg_depth = kDlcBits / 2;  // mid-range data assumption
  const int depths[kTreeLevels] = {avg_depth, avg_depth, avg_depth,
                                   avg_depth};
  const double per_block = energy_.encoder_pass_fj(depths) +
                           cfg_.ndec * energy_.decoder_lookup_avg_fj() +
                           energy_.ctrl_pass_fj(cfg_.ndec);
  const double output_stage =
      cfg_.ndec * (energy_.rca_fj() + energy_.out_reg_fj());
  return per_block * cfg_.ns + output_stage;
}

PerfPoint AnalyticPerf::perf_at_interval(double interval_ns) const {
  SSMA_CHECK(interval_ns > 0.0);
  PerfPoint p;
  p.freq_mhz = 1e3 / interval_ns;
  const double ops = static_cast<double>(ops_per_token());
  p.throughput_tops = ops / interval_ns * 1e-3;  // ops/ns -> TOPS
  const double dyn_fj = token_dynamic_fj();
  const double leak_fj =
      energy_.macro_leakage_uw(cfg_.ndec, cfg_.ns) * interval_ns;
  p.energy_per_op_fj = (dyn_fj + leak_fj) / ops;
  p.tops_per_w = 1e3 / p.energy_per_op_fj;  // 1/fJ -> TOPS/W
  p.power_uw = (dyn_fj + leak_fj) / interval_ns;
  p.tops_per_mm2 =
      p.throughput_tops / area_.core_mm2(cfg_.ndec, cfg_.ns);
  return p;
}

PerfEnvelope AnalyticPerf::envelope() const {
  PerfEnvelope e;
  e.best = perf_at_interval(block_latency_ns(1));
  e.worst = perf_at_interval(block_latency_ns(kDlcBits));
  e.avg_tops_per_w = 0.5 * (e.best.tops_per_w + e.worst.tops_per_w);
  e.avg_tops_per_mm2 = 0.5 * (e.best.tops_per_mm2 + e.worst.tops_per_mm2);
  e.core_mm2 = area_.core_mm2(cfg_.ndec, cfg_.ns);
  return e;
}

EnergyBreakdownPerOp AnalyticPerf::energy_breakdown() const {
  // Evaluate at the average of the best/worst intervals, average data.
  const double interval = avg_block_latency_ns();
  const double ops = static_cast<double>(ops_per_token());

  const int avg_depth = kDlcBits / 2;
  const int depths[kTreeLevels] = {avg_depth, avg_depth, avg_depth,
                                   avg_depth};

  EnergyBreakdownPerOp b;
  const double dec_dyn =
      cfg_.ns * cfg_.ndec * energy_.decoder_lookup_avg_fj();
  const double enc_dyn = cfg_.ns * energy_.encoder_pass_fj(depths);
  const double other_dyn =
      cfg_.ns * energy_.ctrl_pass_fj(cfg_.ndec) +
      cfg_.ndec * (energy_.rca_fj() + energy_.out_reg_fj());

  // Leakage split mirrors the area split: decoders hold the lion's share
  // of devices; the encoder's dynamic-logic trees leak little.
  const double leak_total =
      energy_.macro_leakage_uw(cfg_.ndec, cfg_.ns) * interval;
  const double dec_leak_frac =
      kLeakPerDecoderUwPerV * cfg_.ndec /
      (kLeakBlockBaseUwPerV + kLeakPerDecoderUwPerV * cfg_.ndec);
  const double enc_leak_frac = 0.25 * (1.0 - dec_leak_frac);

  b.decoder_fj = (dec_dyn + leak_total * dec_leak_frac) / ops;
  b.encoder_fj = (enc_dyn + leak_total * enc_leak_frac) / ops;
  b.other_fj =
      (other_dyn + leak_total * (1.0 - dec_leak_frac - enc_leak_frac)) / ops;
  return b;
}

}  // namespace ssma::ppa
