#include "core/ppa_report.hpp"

#include <algorithm>
#include <sstream>

#include "ppa/area_model.hpp"
#include "ppa/corner.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace ssma::core {

std::string PpaReport::render() const {
  std::ostringstream oss;
  TextTable t({"metric", "value"});
  t.add_row({"config", "Ndec=" + std::to_string(ndec) +
                            ", NS=" + std::to_string(ns)});
  t.add_row({"operating point",
             TextTable::num(vdd, 2) + " V, " + corner});
  t.add_row({"frequency [MHz]", TextTable::num(freq_mhz, 1)});
  t.add_row({"throughput [TOPS]", TextTable::num(throughput_tops, 3)});
  t.add_row({"energy eff. [TOPS/W]", TextTable::num(tops_per_w, 1)});
  t.add_row({"area eff. [TOPS/mm2]", TextTable::num(tops_per_mm2, 2)});
  t.add_row({"energy/op [fJ]", TextTable::num(energy_per_op_fj, 2)});
  t.add_row({"core area [mm2]", TextTable::num(core_mm2, 3)});
  t.add_row({"SRAM [kb]", TextTable::num(
                              static_cast<double>(sram_bits) / 1024.0, 0)});
  t.add_row({"decoder energy share", TextTable::pct(energy_decoder_share)});
  t.add_row({"encoder energy share",
             TextTable::pct(energy_encoder_share, 2)});
  t.add_row({"decoder area share", TextTable::pct(area_decoder_share)});
  oss << t.render();
  return oss.str();
}

PpaReport make_report(const sim::MacroConfig& cfg,
                      const sim::MacroRunStats& stats, long long ntokens) {
  SSMA_CHECK(ntokens >= 1);
  PpaReport r;
  r.ndec = cfg.ndec;
  r.ns = cfg.ns;
  r.vdd = cfg.op.vdd;
  r.corner = ppa::corner_name(cfg.op.corner);

  const long long ops_per_token =
      static_cast<long long>(cfg.ns) * cfg.ndec * ppa::kOpsPerLookup;
  r.total_ops = ops_per_token * ntokens;
  r.duration_ns = stats.duration_ns;
  r.events = stats.events;

  r.token_interval_ns =
      stats.output_interval_ns.count() > 0
          ? stats.output_interval_ns.mean()
          : ppa::AnalyticPerf({cfg.ndec, cfg.ns}, cfg.op)
                .avg_block_latency_ns();
  r.freq_mhz = 1e3 / r.token_interval_ns;
  r.throughput_tops =
      static_cast<double>(ops_per_token) / r.token_interval_ns * 1e-3;
  r.energy_per_op_fj =
      stats.ledger.total_fj() / static_cast<double>(r.total_ops);
  r.tops_per_w = 1e3 / r.energy_per_op_fj;

  const ppa::AreaModel area;
  r.core_mm2 = area.core_mm2(cfg.ndec, cfg.ns);
  r.sram_bits = area.sram_bits(cfg.ndec, cfg.ns);
  r.tops_per_mm2 = r.throughput_tops / r.core_mm2;
  r.area_decoder_share = area.macro_area(cfg.ndec, cfg.ns).decoder_share();

  const double total_fj = stats.ledger.total_fj();
  if (total_fj > 0.0) {
    r.energy_decoder_share = stats.ledger.decoder_fj() / total_fj;
    r.energy_encoder_share = stats.ledger.encoder_fj() / total_fj;
  }
  return r;
}

PpaReport make_analytic_report(const ppa::MacroConfig& cfg,
                               const ppa::OperatingPoint& op,
                               int dlc_depth) {
  PpaReport r;
  r.ndec = cfg.ndec;
  r.ns = cfg.ns;
  r.vdd = op.vdd;
  r.corner = ppa::corner_name(op.corner);

  ppa::AnalyticPerf perf(cfg, op);
  ppa::PerfPoint p;
  if (dlc_depth == 0) {
    const auto env = perf.envelope();
    // Average envelope: paper's dashed-line convention.
    p.tops_per_w = env.avg_tops_per_w;
    p.tops_per_mm2 = env.avg_tops_per_mm2;
    p.throughput_tops =
        0.5 * (env.best.throughput_tops + env.worst.throughput_tops);
    p.freq_mhz = 0.5 * (env.best.freq_mhz + env.worst.freq_mhz);
    p.energy_per_op_fj = 1e3 / p.tops_per_w;
  } else {
    p = perf.perf_at_interval(perf.block_latency_ns(dlc_depth));
  }
  r.freq_mhz = p.freq_mhz;
  r.throughput_tops = p.throughput_tops;
  r.token_interval_ns = p.freq_mhz > 0 ? 1e3 / p.freq_mhz : 0.0;
  r.tops_per_w = p.tops_per_w;
  r.tops_per_mm2 = p.tops_per_mm2;
  r.energy_per_op_fj = p.energy_per_op_fj;

  const ppa::AreaModel area;
  r.core_mm2 = area.core_mm2(cfg.ndec, cfg.ns);
  r.sram_bits = area.sram_bits(cfg.ndec, cfg.ns);
  r.area_decoder_share = area.macro_area(cfg.ndec, cfg.ns).decoder_share();

  const auto breakdown = perf.energy_breakdown();
  r.energy_decoder_share = breakdown.decoder_share();
  r.energy_encoder_share = breakdown.encoder_share();
  return r;
}

namespace {

/// Shared pooling math of the two report merges. Energy totals are
/// ops-weighted; the token interval is the ops-weighted mean (the only
/// per-token rate that averages linearly), and frequency is re-derived
/// from it so the freq == 1e3/interval invariant of make_report holds
/// on merged reports too.
struct MergeAccum {
  double total_energy_fj = 0.0;
  double decoder_fj = 0.0, encoder_fj = 0.0;
  double interval_weighted = 0.0;
  /// throughput * interval is config-constant (ops per token / 1e3);
  /// pooled it re-derives aggregate throughput from the merged interval.
  double tput_x_interval_weighted = 0.0;
  double ops_with_rate = 0.0;

  void add(const PpaReport& p) {
    const auto ops = static_cast<double>(p.total_ops);
    const double energy = p.energy_per_op_fj * ops;
    total_energy_fj += energy;
    decoder_fj += p.energy_decoder_share * energy;
    encoder_fj += p.energy_encoder_share * energy;
    if (p.token_interval_ns > 0.0) {
      interval_weighted += p.token_interval_ns * ops;
      tput_x_interval_weighted +=
          p.throughput_tops * p.token_interval_ns * ops;
      ops_with_rate += ops;
    }
  }

  /// `derive_throughput`: recompute m->throughput_tops from the merged
  /// interval (sequential runs of one macro); parallel merges keep the
  /// sum of shard throughputs instead.
  void finalize(PpaReport* m, bool derive_throughput) const {
    if (ops_with_rate > 0.0) {
      m->token_interval_ns = interval_weighted / ops_with_rate;
      m->freq_mhz = 1e3 / m->token_interval_ns;
      if (derive_throughput)
        m->throughput_tops = (tput_x_interval_weighted / ops_with_rate) /
                             m->token_interval_ns;
    }
    if (m->total_ops > 0) {
      m->energy_per_op_fj =
          total_energy_fj / static_cast<double>(m->total_ops);
      if (m->energy_per_op_fj > 0.0)
        m->tops_per_w = 1e3 / m->energy_per_op_fj;
    }
    if (m->core_mm2 > 0.0)
      m->tops_per_mm2 = m->throughput_tops / m->core_mm2;
    if (total_energy_fj > 0.0) {
      m->energy_decoder_share = decoder_fj / total_energy_fj;
      m->energy_encoder_share = encoder_fj / total_energy_fj;
    }
  }
};

}  // namespace

PpaReport merge_reports(const std::vector<PpaReport>& parts) {
  PpaReport m;
  if (parts.empty()) return m;
  // Config echo from the first shard that has one (a default-empty
  // part must not blank the merged echo).
  const PpaReport* echo = &parts.front();
  for (const PpaReport& p : parts)
    if (p.ndec != 0) {
      echo = &p;
      break;
    }
  m.ndec = echo->ndec;
  m.ns = echo->ns;
  m.vdd = echo->vdd;
  m.corner = echo->corner;

  MergeAccum acc;
  double area_decoder_weighted = 0.0;
  for (const PpaReport& p : parts) {
    m.total_ops += p.total_ops;
    m.events += p.events;
    m.duration_ns = std::max(m.duration_ns, p.duration_ns);
    m.core_mm2 += p.core_mm2;
    m.sram_bits += p.sram_bits;
    m.throughput_tops += p.throughput_tops;
    area_decoder_weighted += p.area_decoder_share * p.core_mm2;
    acc.add(p);
  }
  acc.finalize(&m, /*derive_throughput=*/false);
  if (m.core_mm2 > 0.0)
    m.area_decoder_share = area_decoder_weighted / m.core_mm2;
  return m;
}

PpaReport merge_sequential_reports(const std::vector<PpaReport>& parts) {
  PpaReport m;
  if (parts.empty()) return m;
  m.ndec = parts.front().ndec;
  m.ns = parts.front().ns;
  m.vdd = parts.front().vdd;
  m.corner = parts.front().corner;
  m.core_mm2 = parts.front().core_mm2;
  m.sram_bits = parts.front().sram_bits;
  m.area_decoder_share = parts.front().area_decoder_share;

  MergeAccum acc;
  for (const PpaReport& p : parts) {
    m.total_ops += p.total_ops;
    m.events += p.events;
    m.duration_ns += p.duration_ns;
    acc.add(p);
  }
  acc.finalize(&m, /*derive_throughput=*/true);
  return m;
}

}  // namespace ssma::core
