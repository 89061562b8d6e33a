// The sim and ppa layers, measured from outside by calling
// core::Accelerator::run on the paper macro (NS = 32, Ndec = 16, nominal
// 0.5 V) with a trained 32-codebook operator tiled over four output
// tiles. Every output is checked against Amm::apply_int16.
#include <algorithm>
#include <memory>
#include <vector>

#include "core/accelerator.hpp"
#include "core/ppa_report.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kCodebooks = 32;  // NS blocks
constexpr int kOutputs = 64;    // four Ndec = 16 output tiles
constexpr std::size_t kTokensPerRun = 64;
constexpr std::size_t kRuns = 4;  // distinct inputs, one run each
// The operator is trained from this fixed seed; --seed varies the input
// tokens only.
constexpr std::uint64_t kModelSeed = 42;

}  // namespace

void report_sim_layer(const Args& args, Report& rep) {
  using ssma::Matrix;
  using ssma::Rng;
  Rng model_rng(kModelSeed);
  ssma::maddness::Config cfg;
  cfg.ncodebooks = kCodebooks;
  const std::size_t d = static_cast<std::size_t>(cfg.total_dims());
  Matrix train(512, d);
  for (std::size_t i = 0; i < train.size(); ++i)
    train.data()[i] = static_cast<float>(model_rng.next_double(0, 200));
  Matrix w(d, kOutputs);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.data()[i] = static_cast<float>(model_rng.next_gaussian(0, 0.08));
  const ssma::maddness::Amm amm = ssma::maddness::Amm::train(cfg, train, w);

  ssma::core::AcceleratorOptions opts;
  opts.ns = kCodebooks;
  opts.ndec = 16;
  opts.op = ssma::ppa::nominal_05v();
  ssma::core::Accelerator acc(opts);

  Rng rng(args.seed);
  std::vector<ssma::core::PpaReport> reports;
  double events_per_s = 0.0;  // fastest run
  std::size_t bad = 0;
  for (std::size_t r = 0; r < kRuns; ++r) {
    Matrix x(kTokensPerRun, d);
    for (std::size_t i = 0; i < x.size(); ++i)
      x.data()[i] = static_cast<float>(rng.next_double(0, 200));
    const ssma::maddness::QuantizedActivations q =
        ssma::maddness::quantize_activations(x, amm.activation_scale());
    const auto t0 = SteadyClock::now();
    const ssma::core::AcceleratorResult res = acc.run(amm, q);
    const double host_s = seconds_between(t0, SteadyClock::now());
    if (res.outputs != amm.apply_int16(q)) ++bad;
    events_per_s = std::max(
        events_per_s, static_cast<double>(res.report.events) / host_s);
    reports.push_back(res.report);
  }
  rep.count_ops(kRuns, bad);
  rep.mismatch(bad);

  // Simulated figures depend on the seed only, never on host speed.
  const ssma::core::PpaReport sim =
      ssma::core::merge_sequential_reports(reports);
  const std::string basis =
      fmt("simulated; %zu runs x %zu tokens, NS=%d Ndec=16 %.2f V", kRuns,
          kTokensPerRun, kCodebooks, sim.vdd);
  rep.metric("sim.events", static_cast<double>(sim.events) / kRuns, "count",
             basis + ", events per run");
  rep.metric("sim.events_per_host_s", events_per_s, "1/s",
             fmt("host; fastest of %zu Accelerator::run calls", kRuns));
  rep.metric("sim.token_interval_ns", sim.token_interval_ns, "ns", basis);
  rep.metric("sim.energy_decoder_share", sim.energy_decoder_share, "fraction",
             basis);
  rep.metric("sim.energy_encoder_share", sim.energy_encoder_share, "fraction",
             basis);
  rep.metric("sim.tops_per_w", sim.tops_per_w, "TOPS/W", basis);
  rep.metric("sim.tops_per_mm2", sim.tops_per_mm2, "TOPS/mm2", basis);
}

}  // namespace perfbench
