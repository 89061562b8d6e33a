// Tests for the public accelerator façade (tiling, bit-exactness across
// tile boundaries, report assembly) and the prior-work baseline models
// (process scaling reproducing Table II's normalized numbers, analog
// encoder PVT sensitivity, MAC-array energy reference).
#include <gtest/gtest.h>

#include "baselines/analog_encoder_model.hpp"
#include "baselines/exact_mac_model.hpp"
#include "baselines/prior_work.hpp"
#include "baselines/process_scaling.hpp"
#include "core/accelerator.hpp"
#include "core/experiments.hpp"
#include "core/layer_mapping.hpp"
#include "core/ppa_report.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ssma {
namespace {

maddness::Amm train_test_amm(Rng& rng, int ncodebooks, int nout,
                             std::size_t n = 240) {
  maddness::Config cfg;
  cfg.ncodebooks = ncodebooks;
  Matrix x(n, static_cast<std::size_t>(ncodebooks) * 9);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 220));
  Matrix w(static_cast<std::size_t>(ncodebooks) * 9, nout);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.05));
  return maddness::Amm::train(cfg, x, w);
}

// ------------------------------------------------------------ layer tiling

TEST(LayerMapping, ExactFitSingleTile) {
  const auto plan = core::plan_tiles(8, 4, 8, 4);
  EXPECT_EQ(plan.tiles.size(), 1u);
  EXPECT_EQ(plan.input_tiles(), 1);
  EXPECT_EQ(plan.output_tiles(), 1);
  EXPECT_TRUE(plan.tiles[0].first_input_tile);
}

TEST(LayerMapping, SplitsInputAndOutputDims) {
  const auto plan = core::plan_tiles(20, 10, 8, 4);
  EXPECT_EQ(plan.input_tiles(), 3);   // 8+8+4
  EXPECT_EQ(plan.output_tiles(), 3);  // 4+4+2
  EXPECT_EQ(plan.tiles.size(), 9u);
  // Every output tile's first input tile gets the bias.
  int firsts = 0;
  for (const auto& t : plan.tiles) firsts += t.first_input_tile;
  EXPECT_EQ(firsts, 3);
  // Partial tail tiles.
  EXPECT_EQ(plan.tiles.back().block_n, 4);
  EXPECT_EQ(plan.tiles.back().lane_n, 2);
}

TEST(LayerMapping, CoversEveryCell) {
  const auto plan = core::plan_tiles(13, 7, 5, 3);
  std::vector<std::vector<int>> covered(13, std::vector<int>(7, 0));
  for (const auto& t : plan.tiles)
    for (int b = 0; b < t.block_n; ++b)
      for (int d = 0; d < t.lane_n; ++d)
        covered[t.block_lo + b][t.lane_lo + d] += 1;
  for (const auto& row : covered)
    for (int c : row) EXPECT_EQ(c, 1);
}

// -------------------------------------------------------------- accelerator

TEST(Accelerator, SingleTileMatchesSoftware) {
  Rng rng(1);
  const auto amm = train_test_amm(rng, 4, 6);
  const auto q = maddness::quantize_activations(
      Matrix(8, 36, 100.0f), amm.activation_scale());

  core::AcceleratorOptions opts;
  opts.ndec = 8;
  opts.ns = 4;
  core::Accelerator acc(opts);
  const auto res = acc.run(amm, q);
  EXPECT_EQ(res.plan.tiles.size(), 1u);
  EXPECT_EQ(res.outputs, amm.apply_int16(q));
}

TEST(Accelerator, TiledAcrossInputChannels) {
  // 6 codebooks on a 2-block macro: 3 chained input tiles with partial
  // re-injection must still be bit-exact.
  Rng rng(3);
  const auto amm = train_test_amm(rng, 6, 4);
  Matrix x(10, 54);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 200));
  const auto q = maddness::quantize_activations(x, amm.activation_scale());

  core::AcceleratorOptions opts;
  opts.ndec = 4;
  opts.ns = 2;
  core::Accelerator acc(opts);
  const auto res = acc.run(amm, q);
  EXPECT_EQ(res.plan.input_tiles(), 3);
  EXPECT_EQ(res.outputs, amm.apply_int16(q));
}

TEST(Accelerator, TiledAcrossOutputLanes) {
  Rng rng(5);
  const auto amm = train_test_amm(rng, 2, 10);
  Matrix x(6, 18);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 200));
  const auto q = maddness::quantize_activations(x, amm.activation_scale());

  core::AcceleratorOptions opts;
  opts.ndec = 4;
  opts.ns = 2;
  core::Accelerator acc(opts);
  const auto res = acc.run(amm, q);
  EXPECT_EQ(res.plan.output_tiles(), 3);
  EXPECT_EQ(res.outputs, amm.apply_int16(q));
}

TEST(Accelerator, TiledBothDimsWithBias) {
  Rng rng(7);
  const auto amm = train_test_amm(rng, 5, 6);
  Matrix x(7, 45);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 200));
  const auto q = maddness::quantize_activations(x, amm.activation_scale());

  std::vector<std::int16_t> bias = {10, -20, 30, -40, 50, -60};
  core::AcceleratorOptions opts;
  opts.ndec = 4;
  opts.ns = 2;
  core::Accelerator acc(opts);
  const auto res = acc.run(amm, q, &bias);

  auto expect = amm.apply_int16(q);
  for (std::size_t k = 0; k < q.rows; ++k)
    for (int o = 0; o < 6; ++o)
      expect[k * 6 + o] =
          static_cast<std::int16_t>(expect[k * 6 + o] + bias[o]);
  EXPECT_EQ(res.outputs, expect);
}

TEST(Accelerator, ReportHasConsistentMetrics) {
  Rng rng(9);
  const auto amm = train_test_amm(rng, 4, 4);
  Matrix x(12, 36);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 200));
  const auto q = maddness::quantize_activations(x, amm.activation_scale());

  core::AcceleratorOptions opts;
  opts.ndec = 4;
  opts.ns = 4;
  core::Accelerator acc(opts);
  const auto res = acc.run(amm, q);
  const core::PpaReport& r = res.report;
  EXPECT_GT(r.freq_mhz, 0.0);
  EXPECT_GT(r.tops_per_w, 0.0);
  EXPECT_GT(r.energy_per_op_fj, 0.0);
  EXPECT_NEAR(r.tops_per_w * r.energy_per_op_fj, 1e3, 1.0);
  EXPECT_NEAR(r.tops_per_mm2 * r.core_mm2, r.throughput_tops, 1e-9);
  const std::string text = r.render();
  EXPECT_NE(text.find("TOPS/W"), std::string::npos);
}

TEST(Accelerator, LoneTokenReportTakesAnalyticInterval) {
  // One token leaves no spacing between completions to measure; the
  // report falls back to the closed-form average-data interval instead
  // of reading a zero rate.
  Rng rng(9);
  const auto amm = train_test_amm(rng, 4, 4);
  Matrix x(1, 36);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.next_double(0, 200));
  const auto q = maddness::quantize_activations(x, amm.activation_scale());

  core::AcceleratorOptions opts;
  opts.ndec = 4;
  opts.ns = 4;
  core::Accelerator acc(opts);
  const core::PpaReport r = acc.run(amm, q).report;
  const ppa::AnalyticPerf perf({opts.ndec, opts.ns}, opts.op);
  EXPECT_DOUBLE_EQ(r.token_interval_ns, perf.avg_block_latency_ns());
  EXPECT_DOUBLE_EQ(r.freq_mhz, 1e3 / r.token_interval_ns);
  EXPECT_GT(r.throughput_tops, 0.0);
  EXPECT_NEAR(r.tops_per_mm2 * r.core_mm2, r.throughput_tops, 1e-9);
}

TEST(Accelerator, AnalyticReportMatchesPaperFlagship) {
  core::AcceleratorOptions opts;  // defaults: 16 x 32 @ 0.5 V
  core::Accelerator acc(opts);
  const auto r = acc.analytic_report(0);
  EXPECT_NEAR(r.tops_per_w, 174.0, 2.0);
  EXPECT_NEAR(r.core_mm2, 0.20, 0.002);
  EXPECT_NEAR(r.tops_per_mm2, 2.01, 0.05);
}

// --------------------------------------------------------------- experiments

TEST(Experiments, Fig6SweepShapes) {
  const auto pts = core::run_fig6_sweep({0.5, 0.8});
  EXPECT_EQ(pts.size(), 10u);  // 2 voltages x 5 corners
  // Energy efficiency decreases with voltage; area efficiency increases.
  const auto& ttg05 = pts[0];
  const auto& ttg08 = pts[5];
  EXPECT_EQ(ttg05.corner, ppa::Corner::TTG);
  EXPECT_GT(ttg05.avg_tops_per_w, ttg08.avg_tops_per_w);
  EXPECT_LT(ttg05.avg_tops_per_mm2, ttg08.avg_tops_per_mm2);
}

TEST(Experiments, Fig7BreakdownTrends) {
  const auto b4 = core::run_fig7_breakdown(4, 10, 4);
  const auto b16 = core::run_fig7_breakdown(16, 10, 4);
  // Decoder shares grow with Ndec in energy and area; encoder latency
  // share shrinks slightly (deeper RCD tree).
  EXPECT_GT(b16.energy_decoder_share, b4.energy_decoder_share);
  EXPECT_GT(b16.area_decoder_share, b4.area_decoder_share);
  EXPECT_LT(b16.encoder_latency_share_best, b4.encoder_latency_share_best);
  // Fig. 7B values.
  EXPECT_NEAR(b4.latency_best_ns, 16.1, 0.05);
  EXPECT_NEAR(b16.latency_worst_ns, 32.1, 0.05);
  EXPECT_NEAR(b4.encoder_latency_share_worst, 0.713, 0.005);
  EXPECT_NEAR(b16.encoder_latency_share_best, 0.415, 0.005);
}

TEST(Experiments, Table1RowsMatchPaper) {
  const auto rows = core::run_table1_sweep();
  const auto golden = core::table1_paper_values();
  ASSERT_EQ(rows.size(), golden.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].ndec, golden[i].ndec);
    EXPECT_NEAR(rows[i].eff_05v_tops_per_w, golden[i].w05,
                0.015 * golden[i].w05);
    EXPECT_NEAR(rows[i].eff_08v_tops_per_w, golden[i].w08,
                0.015 * golden[i].w08);
  }
}

// ------------------------------------------------------------------ scaling

TEST(ProcessScaling, IdealSquareLaw) {
  baselines::ScalingSpec spec{65.0, 22.0, 2.0, 0.0};
  EXPECT_NEAR(baselines::scale_area_mm2(1.0, spec), (22.0 / 65.0) * (22.0 / 65.0),
              1e-12);
}

TEST(ProcessScaling, UnscaledFractionStays) {
  baselines::ScalingSpec spec{65.0, 22.0, 2.0, 1.0};
  EXPECT_NEAR(baselines::scale_area_mm2(0.5, spec), 0.5, 1e-12);
}

TEST(PriorWork, NormalizedAreaEfficiencyMatchesTable2) {
  // Footnote 4 values: [21] 0.29 -> (0.40), [22] 5.1 -> (2.70).
  EXPECT_NEAR(baselines::normalized_area_efficiency(baselines::fuketa_tcas23()), 0.40,
              0.01);
  EXPECT_NEAR(baselines::normalized_area_efficiency(baselines::stella_nera()), 2.70,
              0.03);
}

TEST(PriorWork, ProposedBeatsBothBaselines) {
  // The headline: 2.5x energy efficiency vs [21], and at 0.8 V both
  // metrics beat [22]'s normalized numbers.
  ppa::AnalyticPerf p05({16, 32}, ppa::nominal_05v());
  const auto e05 = p05.envelope();
  EXPECT_GT(e05.avg_tops_per_w,
            2.4 * baselines::fuketa_tcas23().tops_per_w);
  EXPECT_GT(e05.avg_tops_per_mm2,
            4.8 * baselines::normalized_area_efficiency(baselines::fuketa_tcas23()));

  ppa::AnalyticPerf p08({16, 32}, ppa::nominal_08v());
  const auto e08 = p08.envelope();
  EXPECT_GT(e08.avg_tops_per_w,
            1.6 * baselines::stella_nera().tops_per_w);
  EXPECT_GT(e08.avg_tops_per_mm2,
            4.0 * baselines::normalized_area_efficiency(baselines::stella_nera()));
}

// ------------------------------------------------------------ analog model

TEST(AnalogEncoder, IdealEncodeIsManhattanArgmin) {
  Matrix protos(3, 2);
  protos(0, 0) = 0;
  protos(0, 1) = 0;
  protos(1, 0) = 30;
  protos(1, 1) = 30;
  protos(2, 0) = 60;
  protos(2, 1) = 60;
  Rng rng(11);
  baselines::AnalogTimeDomainEncoder enc(protos, 0.0, rng);
  EXPECT_EQ(enc.encode_ideal({1, 2}), 0);
  EXPECT_EQ(enc.encode_ideal({29, 31}), 1);
  EXPECT_EQ(enc.encode_ideal({63, 55}), 2);
}

TEST(AnalogEncoder, ZeroMismatchNeverFlips) {
  Rng rng(13);
  Matrix protos(8, 4);
  for (std::size_t i = 0; i < protos.size(); ++i)
    protos.data()[i] = static_cast<float>(rng.next_int(0, 63));
  const double rate = baselines::AnalogTimeDomainEncoder::
      misclassification_rate(protos, 0.0, 500, rng);
  EXPECT_DOUBLE_EQ(rate, 0.0);
}

TEST(AnalogEncoder, MismatchCausesFlipsMonotonically) {
  // The PVT-vulnerability mechanism of [21]: more mismatch, more flipped
  // encodings. The proposed digital BDT has no analog race to corrupt.
  Rng rng(17);
  Matrix protos(16, 9);
  for (std::size_t i = 0; i < protos.size(); ++i)
    protos.data()[i] = static_cast<float>(rng.next_int(0, 63));
  Rng r1(19), r2(19);
  const double low = baselines::AnalogTimeDomainEncoder::
      misclassification_rate(protos, 0.02, 800, r1);
  const double high = baselines::AnalogTimeDomainEncoder::
      misclassification_rate(protos, 0.15, 800, r2);
  EXPECT_GT(high, low);
  EXPECT_GT(high, 0.01);
}

// ---------------------------------------------------------------- MAC model

TEST(MacBaseline, EnergyScalesWithNodeAndVoltage) {
  baselines::MacBaselineModel m;
  EXPECT_LT(m.mac_energy_fj(22.0, 0.5), m.mac_energy_fj(45.0, 0.9));
  EXPECT_LT(m.mac_energy_fj(22.0, 0.5), m.mac_energy_fj(22.0, 0.8));
}

TEST(MacBaseline, MaddnessBeatsMacArrayByLargeFactor) {
  // The premise of the whole line of work: table lookup removes the
  // multiplier and the weight fetch, so the proposed macro's energy/op
  // is far below a conventional MAC datapath at the same node/VDD.
  baselines::MacBaselineModel m;
  const double mac_eff = m.tops_per_w(22.0, 0.5);
  ppa::AnalyticPerf perf({16, 32}, ppa::nominal_05v());
  EXPECT_GT(perf.envelope().avg_tops_per_w, 5.0 * mac_eff);
}

TEST(MacBaseline, WeightFetchDominates) {
  // Horowitz's observation: SRAM fetch costs more than the arithmetic.
  baselines::MacBaselineModel m;
  EXPECT_GT(m.energy_per_op_fj(22.0, 0.8, true),
            3.0 * m.energy_per_op_fj(22.0, 0.8, false));
}

}  // namespace
}  // namespace ssma
