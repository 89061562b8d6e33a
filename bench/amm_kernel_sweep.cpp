// Old-vs-new sweep of the AMM hot path. For each
// (rows, ncodebooks, nout) cell it measures:
//   * ref     — the pre-rewrite path: per-row tree-walk encode + naive
//               row->codebook->output accumulation over the proto-major
//               layout (apply_lut_reference),
//   * packed  — the current serving path: vectorized batch encode into
//               reusable scratch + the packed output-major kernel, both
//               at their runtime-selected tiers,
//   * kernel_only — each available accumulation tier on a prebuilt
//               encode cache,
//   * encoder — each available encoder tier, encode only, plus the
//               cell's encode_fraction: the share of the new end-to-end
//               time spent encoding (how much of the encode/kernel gap
//               remains).
// Every cell also asserts bit-exactness (encoder tiers vs the per-row
// HashTree walk, packed kernel vs the reference accumulation) before
// timing — a perf artifact from a wrong kernel is worse than none.
//
// A final fusion cell times a 3-stage chained pipeline through
// engine::run_plan with the fused epilogue on and off (both checked
// bit-exact vs pipeline_reference_apply on every tier first) and lands
// in BENCH_roofline.json as the "fusion" object, including the
// intermediate bytes per row the fused walk never writes.
//
//   build/bench/amm_kernel_sweep [--smoke] [--out=BENCH_amm_kernel.json]
//                                [--min-ms=N]
//
// --smoke shrinks the workload to seconds (for the sanitizer CI job),
// checks exactness on every tier and writes no artifact. The full run
// writes one JSON object (see README "Encoder kernel architecture" for
// how to read it); the headline cell is (rows=256, ncodebooks=32,
// nout=128) with headline_speedup_256x32x128 (vs the naive reference).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "engine/execution_plan.hpp"
#include "engine/model_registry.hpp"
#include "engine/pipeline.hpp"
#include "maddness/amm.hpp"
#include "maddness/encoder_kernel.hpp"
#include "maddness/lut_kernel.hpp"
#include "maddness/prototypes.hpp"
#include "telemetry/kernel_profile.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

using namespace ssma;
using Clock = std::chrono::steady_clock;

namespace {

volatile std::int16_t g_sink = 0;  // defeat dead-code elimination

template <class F>
double seconds_per_call(F&& f, double min_ms) {
  f();  // warm caches, fault pages
  const Clock::time_point t0 = Clock::now();
  int iters = 0;
  double elapsed_s = 0.0;
  do {
    f();
    ++iters;
    elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed_s * 1000.0 < min_ms);
  return elapsed_s / iters;
}

maddness::Amm train_operator(Rng& rng, int ncodebooks, int nout) {
  const std::size_t d = static_cast<std::size_t>(ncodebooks) * 9;
  Matrix train(256, d);
  for (std::size_t i = 0; i < train.size(); ++i)
    train.data()[i] = static_cast<float>(rng.next_double(0, 220));
  Matrix w(d, static_cast<std::size_t>(nout));
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
  maddness::Config cfg;
  cfg.ncodebooks = ncodebooks;
  return maddness::Amm::train(cfg, train, w);
}

struct Measure {
  double rows_per_s = 0.0;
  double lut_gbps = 0.0;  // one gathered LUT byte per (row, codebook, out)
};

std::string measure_json(const Measure& m) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"rows_per_s\":%.0f,\"lut_gbps\":%.3f}", m.rows_per_s,
                m.lut_gbps);
  return buf;
}

Measure make_measure(std::size_t rows, int ncb, int nout, double sec) {
  Measure m;
  m.rows_per_s = static_cast<double>(rows) / sec;
  m.lut_gbps = static_cast<double>(rows) * ncb * nout / sec / 1e9;
  return m;
}

/// Fused-vs-unfused pipeline cell: a 3-stage chained dense stack
/// (d -> d -> d -> nout, widths chained so every interior boundary is
/// ncb*9 wide) through engine::run_plan. Both walks are first checked
/// bit-exact vs pipeline_reference_apply on every available LUT tier;
/// the full run then times the runtime-selected tier and fills
/// `fusion`. Returns false on a mismatch.
bool run_fusion_cell(bool smoke, double min_ms,
                     const std::vector<maddness::KernelTier>& tiers,
                     telemetry::FusionRoofline& fusion) {
  Rng rng(777);
  const int ncb = smoke ? 4 : 32;
  const std::size_t rows = smoke ? 48 : 512;
  const std::size_t d = static_cast<std::size_t>(ncb) * 9;
  const std::size_t last_nout = smoke ? 16 : 128;

  Matrix calib(384, d);
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.data()[i] = static_cast<float>(rng.next_double(0, 200));
  auto gauss = [&rng](std::size_t r, std::size_t c) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < m.size(); ++i)
      m.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
    return m;
  };
  maddness::Config cfg;
  cfg.ncodebooks = ncb;
  std::vector<maddness::Amm> stages;
  stages.reserve(3);  // the plan points into this vector: no realloc
  Matrix mid0, mid1;
  stages.push_back(
      engine::train_chained_stage(cfg, calib, gauss(d, d), &mid0));
  stages.push_back(
      engine::train_chained_stage(cfg, mid0, gauss(d, d), &mid1));
  stages.push_back(
      engine::train_chained_stage(cfg, mid1, gauss(d, last_nout), nullptr));
  const engine::ExecutionPlan plan = engine::ExecutionPlan::compile(stages);

  Matrix fresh(rows, d);
  for (std::size_t i = 0; i < fresh.size(); ++i)
    fresh.data()[i] = static_cast<float>(rng.next_double(0, 200));
  const maddness::QuantizedActivations q =
      maddness::quantize_activations(fresh, stages[0].activation_scale());

  const engine::ModelRef model = engine::ModelHandle::from_stages(
      "fusion", 1, {&stages[0], &stages[1], &stages[2]});
  const std::vector<std::int16_t> want =
      engine::pipeline_reference_apply(*model, q);

  engine::PlanScratch scratch;
  std::vector<std::int16_t> out;
  for (const maddness::KernelTier tier : tiers) {
    for (const bool fused : {true, false}) {
      engine::run_plan(plan, q, scratch, out, fused, tier);
      if (out != want) {
        std::fprintf(stderr,
                     "FUSION MISMATCH: %s walk on tier %s differs from "
                     "pipeline_reference_apply\n",
                     fused ? "fused" : "unfused",
                     maddness::kernel_tier_name(tier));
        return false;
      }
    }
  }
  if (smoke) return true;

  const maddness::KernelTier sel = maddness::select_kernel_tier();
  const double fused_s = seconds_per_call(
      [&] {
        engine::run_plan(plan, q, scratch, out, /*fused=*/true, sel);
        g_sink = static_cast<std::int16_t>(g_sink + out[0]);
      },
      min_ms);
  const double unfused_s = seconds_per_call(
      [&] {
        engine::run_plan(plan, q, scratch, out, /*fused=*/false, sel);
        g_sink = static_cast<std::int16_t>(g_sink + out[0]);
      },
      min_ms);
  fusion.stages = 3;
  fusion.tier = maddness::kernel_tier_name(sel);
  fusion.rows = rows;
  fusion.ncodebooks = static_cast<std::uint64_t>(ncb);
  fusion.inter_cols = d;
  fusion.bytes_avoided_per_row = plan.fused_bytes_avoided_per_row();
  fusion.fused_rows_per_s = static_cast<double>(rows) / fused_s;
  fusion.unfused_rows_per_s = static_cast<double>(rows) / unfused_s;
  fusion.speedup = unfused_s / fused_s;
  std::fprintf(stderr,
               "fusion 3-stage ncb=%d inter=%zu rows=%zu  fused %.0f "
               "rows/s  unfused %.0f rows/s  speedup %.2fx  "
               "bytes-avoided/row %zu\n",
               ncb, d, rows, fusion.fused_rows_per_s,
               fusion.unfused_rows_per_s, fusion.speedup,
               plan.fused_bytes_avoided_per_row());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_amm_kernel.json";
  std::string roofline_path = "BENCH_roofline.json";
  double min_ms = 150.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0)
      out_path = argv[i] + 6;
    else if (std::strncmp(argv[i], "--roofline-out=", 15) == 0)
      roofline_path = argv[i] + 15;
    else if (std::strncmp(argv[i], "--min-ms=", 9) == 0)
      min_ms = std::strtod(argv[i] + 9, nullptr);
    else {
      std::fprintf(stderr, "unknown arg: %s\n", argv[i]);
      return 1;
    }
  }
  if (smoke) min_ms = 2.0;

  std::vector<maddness::KernelTier> tiers{maddness::KernelTier::kScalar};
  if (maddness::kernel_tier_available(maddness::KernelTier::kSsse3))
    tiers.push_back(maddness::KernelTier::kSsse3);
  if (maddness::kernel_tier_available(maddness::KernelTier::kAvx2))
    tiers.push_back(maddness::KernelTier::kAvx2);
  std::vector<maddness::KernelTier> enc_tiers{maddness::KernelTier::kScalar};
  if (maddness::encoder_tier_available(maddness::KernelTier::kSsse3))
    enc_tiers.push_back(maddness::KernelTier::kSsse3);
  if (maddness::encoder_tier_available(maddness::KernelTier::kAvx2))
    enc_tiers.push_back(maddness::KernelTier::kAvx2);

  struct CellSpec {
    std::size_t rows;
    int ncodebooks;
    int nout;
  };
  std::vector<CellSpec> specs;
  if (smoke) {
    specs = {{33, 4, 8}, {64, 4, 17}};
  } else {
    for (const int ncb : {8, 32})
      for (const int nout : {16, 128})
        for (const std::size_t rows : {std::size_t{64}, std::size_t{256},
                                       std::size_t{1024}})
          specs.push_back({rows, ncb, nout});
  }

  Rng rng(2026);
  std::string cells_json;
  double headline_speedup = 0.0;
  // Headline-cell per-tier timings, fed into the roofline self-model.
  std::vector<std::pair<maddness::KernelTier, double>> roof_lut_s;
  std::vector<std::pair<maddness::KernelTier, double>> roof_enc_s;
  int trained_ncb = -1, trained_nout = -1;
  maddness::Amm amm;  // reused across row counts of one (ncb, nout) pair
  for (const CellSpec& spec : specs) {
    if (spec.ncodebooks != trained_ncb || spec.nout != trained_nout) {
      amm = train_operator(rng, spec.ncodebooks, spec.nout);
      trained_ncb = spec.ncodebooks;
      trained_nout = spec.nout;
    }
    const std::size_t d = static_cast<std::size_t>(spec.ncodebooks) * 9;
    Matrix x(spec.rows, d);
    for (std::size_t i = 0; i < x.size(); ++i)
      x.data()[i] = static_cast<float>(rng.next_double(0, 220));
    const maddness::QuantizedActivations q =
        maddness::quantize_activations(x, amm.activation_scale());

    // Correctness gates before any number is recorded: every encoder
    // tier must reproduce the per-row HashTree walk to the bit, and
    // every accumulation tier must match the reference decode.
    // encode_all is row-major; the packed encode cache is
    // codebook-major (codes[c * rows + n]).
    const auto row_codes = maddness::encode_all(amm.cfg(), amm.trees(), q);
    const std::size_t ncb = static_cast<std::size_t>(spec.ncodebooks);
    std::vector<std::uint8_t> ref_codes(row_codes.size());
    for (std::size_t n = 0; n < q.rows; ++n)
      for (std::size_t c = 0; c < ncb; ++c)
        ref_codes[c * q.rows + n] = row_codes[n * ncb + c];
    maddness::EncodeScratch scratch;
    maddness::EncodedBatch enc;
    for (const maddness::KernelTier tier : enc_tiers) {
      maddness::encode_batch_packed(amm.encoder_bank(), q, tier, scratch,
                                    enc);
      if (enc.codes != ref_codes) {
        std::fprintf(stderr,
                     "ENCODER MISMATCH: tier %s differs from "
                     "HashTree::encode at rows=%zu ncb=%d\n",
                     maddness::kernel_tier_name(tier), spec.rows,
                     spec.ncodebooks);
        return 2;
      }
    }
    const auto ref_out = amm.apply_int16_reference(q);
    for (const maddness::KernelTier tier : tiers) {
      const auto got =
          maddness::apply_lut_packed(amm.packed_lut(), enc, tier);
      if (got != ref_out) {
        std::fprintf(stderr,
                     "MISMATCH: tier %s differs from reference at "
                     "rows=%zu ncb=%d nout=%d\n",
                     maddness::kernel_tier_name(tier), spec.rows,
                     spec.ncodebooks, spec.nout);
        return 2;
      }
    }

    // End-to-end: naive reference and the current serving path
    // (vectorized encode into reusable scratch + packed kernel).
    std::vector<std::int16_t> out;
    const double ref_s = seconds_per_call(
        [&] {
          const auto r = amm.apply_int16_reference(q);
          g_sink = static_cast<std::int16_t>(g_sink + r[0]);
        },
        min_ms);
    const double packed_s = seconds_per_call(
        [&] {
          amm.encode_batch(q, scratch, enc);
          amm.apply_int16(enc, out);
          g_sink = static_cast<std::int16_t>(g_sink + out[0]);
        },
        min_ms);
    const Measure ref_m =
        make_measure(spec.rows, spec.ncodebooks, spec.nout, ref_s);
    const Measure packed_m =
        make_measure(spec.rows, spec.ncodebooks, spec.nout, packed_s);
    const double speedup = ref_s / packed_s;
    if (spec.rows == 256 && spec.ncodebooks == 32 && spec.nout == 128)
      headline_speedup = speedup;

    // Per-tier kernel-only numbers on the prebuilt encode cache.
    std::string tier_json;
    for (const maddness::KernelTier tier : tiers) {
      const double tier_s = seconds_per_call(
          [&] {
            maddness::apply_lut_packed(amm.packed_lut(), enc, tier, out);
            g_sink = static_cast<std::int16_t>(g_sink + out[0]);
          },
          min_ms);
      if (spec.rows == 256 && spec.ncodebooks == 32 && spec.nout == 128)
        roof_lut_s.emplace_back(tier, tier_s);
      if (!tier_json.empty()) tier_json += ",";
      tier_json += std::string("\"") + maddness::kernel_tier_name(tier) +
                   "\":" +
                   measure_json(make_measure(spec.rows, spec.ncodebooks,
                                             spec.nout, tier_s));
    }

    // Per-tier encoder-only numbers (scratch reused, as serving does),
    // plus the selected-tier encode time for the encode_fraction.
    std::string enc_json;
    double enc_selected_s = 0.0;
    for (const maddness::KernelTier tier : enc_tiers) {
      const double tier_s = seconds_per_call(
          [&] {
            maddness::encode_batch_packed(amm.encoder_bank(), q, tier,
                                          scratch, enc);
            g_sink = static_cast<std::int16_t>(g_sink + enc.codes[0]);
          },
          min_ms);
      if (spec.rows == 256 && spec.ncodebooks == 32 && spec.nout == 128)
        roof_enc_s.emplace_back(tier, tier_s);
      if (tier == maddness::select_encoder_tier()) enc_selected_s = tier_s;
      if (!enc_json.empty()) enc_json += ",";
      char ebuf[64];
      std::snprintf(ebuf, sizeof(ebuf), "{\"rows_per_s\":%.0f}",
                    static_cast<double>(spec.rows) / tier_s);
      enc_json += std::string("\"") + maddness::kernel_tier_name(tier) +
                  "\":" + ebuf;
    }
    // Share of the new end-to-end spent encoding: what remains of the
    // encode/kernel gap at this cell.
    const double encode_fraction =
        packed_s > 0.0 ? enc_selected_s / packed_s : 0.0;

    if (!cells_json.empty()) cells_json += ",";
    cells_json += "{\"rows\":" + std::to_string(spec.rows) +
                  ",\"ncodebooks\":" + std::to_string(spec.ncodebooks) +
                  ",\"nout\":" + std::to_string(spec.nout) +
                  ",\"ref\":" + measure_json(ref_m) +
                  ",\"packed\":" + measure_json(packed_m) + ",";
    char sp[96];
    std::snprintf(sp, sizeof(sp),
                  "\"speedup\":%.2f,\"encode_fraction\":%.3f,", speedup,
                  encode_fraction);
    cells_json += sp;
    cells_json += "\"kernel_only\":{" + tier_json + "},\"encoder\":{" +
                  enc_json + "}}";
    std::fprintf(stderr,
                 "rows=%4zu ncb=%2d nout=%3d  ref %.0f rows/s  "
                 "packed %.0f rows/s  speedup %.2fx  enc-frac %.2f\n",
                 spec.rows, spec.ncodebooks, spec.nout, ref_m.rows_per_s,
                 packed_m.rows_per_s, speedup, encode_fraction);
  }

  telemetry::FusionRoofline fusion;
  if (!run_fusion_cell(smoke, min_ms, tiers, fusion)) return 2;

  if (smoke) {
    std::fprintf(stderr, "smoke ok (kernel tiers:");
    for (const maddness::KernelTier tier : tiers)
      std::fprintf(stderr, " %s", maddness::kernel_tier_name(tier));
    std::fprintf(stderr, "; encoder tiers:");
    for (const maddness::KernelTier tier : enc_tiers)
      std::fprintf(stderr, " %s", maddness::kernel_tier_name(tier));
    std::fprintf(stderr, ")\n");
    return 0;
  }

  std::string tiers_json;
  for (const maddness::KernelTier tier : tiers) {
    if (!tiers_json.empty()) tiers_json += ",";
    tiers_json +=
        std::string("\"") + maddness::kernel_tier_name(tier) + "\"";
  }
  std::string enc_tiers_json;
  for (const maddness::KernelTier tier : enc_tiers) {
    if (!enc_tiers_json.empty()) enc_tiers_json += ",";
    enc_tiers_json +=
        std::string("\"") + maddness::kernel_tier_name(tier) + "\"";
  }
  // Roofline self-model from the headline cell (rows=256, ncb=32,
  // nout=128): achieved vs theoretical GB/s per tier for both kernels,
  // in the style of an operations/data-movement analysis. The dense
  // shape the AMM replaces is (rows x d) @ (d x nout) with d = ncb*9.
  telemetry::RooflineReport roof;
  roof.cpu_ghz = telemetry::estimate_cpu_ghz();
  roof.headline_cell = "rows=256 ncb=32 nout=128";
  constexpr std::uint64_t kRoofRows = 256, kRoofNcb = 32, kRoofNout = 128;
  constexpr std::uint64_t kRoofD = kRoofNcb * 9;
  for (const auto& [tier, sec] : roof_lut_s) {
    roof.entries.push_back(telemetry::make_roofline_entry(
        "lut_accumulate", static_cast<int>(tier), kRoofRows, kRoofNcb,
        kRoofNout, kRoofD,
        static_cast<double>(kRoofRows * kRoofNcb * kRoofNout), sec,
        roof.cpu_ghz));
  }
  for (const auto& [tier, sec] : roof_enc_s) {
    // d=0: MACs-avoided is a property of the LUT substitution, not the
    // encoder — report it as zero here rather than a fabricated count.
    roof.entries.push_back(telemetry::make_roofline_entry(
        "encode", static_cast<int>(tier), kRoofRows, kRoofNcb, kRoofD,
        /*d=*/0, static_cast<double>(kRoofRows * kRoofNcb * 4), sec,
        roof.cpu_ghz));
  }
  roof.fusion = fusion;
  if (!benchenv::write_artifact(roofline_path, roof.json())) return 1;

  // Summary of the selected tiers' roofline position for the main
  // artifact.
  double lut_frac = 0.0, enc_frac = 0.0, lut_gbps = 0.0, enc_gbps = 0.0;
  const char* sel_lut =
      maddness::kernel_tier_name(maddness::select_kernel_tier());
  const char* sel_enc =
      maddness::kernel_tier_name(maddness::select_encoder_tier());
  for (const telemetry::RooflineEntry& e : roof.entries) {
    if (e.kernel == "lut_accumulate" && e.tier == sel_lut) {
      lut_frac = e.frac_of_peak;
      lut_gbps = e.achieved_gbps;
    }
    if (e.kernel == "encode" && e.tier == sel_enc) {
      enc_frac = e.frac_of_peak;
      enc_gbps = e.achieved_gbps;
    }
  }
  char roofsum[256];
  std::snprintf(roofsum, sizeof(roofsum),
                "\"roofline\":{\"cpu_ghz\":%.3f,"
                "\"lut_achieved_gbps\":%.3f,\"lut_frac_of_peak\":%.4f,"
                "\"encode_achieved_gbps\":%.3f,"
                "\"encode_frac_of_peak\":%.4f}",
                roof.cpu_ghz, lut_gbps, lut_frac, enc_gbps, enc_frac);

  char headline[128];
  std::snprintf(headline, sizeof(headline),
                "\"headline_speedup_256x32x128\":%.2f",
                headline_speedup);
  const std::string json =
      std::string("{\"bench\":\"amm_kernel_sweep\",") +
      benchenv::machine_json() + ",\"tier_selected\":\"" +
      maddness::kernel_tier_name(maddness::select_kernel_tier()) +
      "\",\"tiers_available\":[" + tiers_json +
      "],\"encoder_tier_selected\":\"" +
      maddness::kernel_tier_name(maddness::select_encoder_tier()) +
      "\",\"encoder_tiers_available\":[" + enc_tiers_json + "]," +
      headline + "," + roofsum + ",\"cells\":[" + cells_json + "]}";
  return benchenv::write_artifact(out_path, json) ? 0 : 1;
}
