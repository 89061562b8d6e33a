// The two workloads of the benchmark. Each one builds its inputs from
// Args::seed, sets the program up several times (reporting the median
// set-up time), measures for Args::seconds, checks every output against
// an independent reference and records its metrics into the Report:
// end-to-end metrics in the untraced run, per-layer metrics in the
// traced run (Args::trace).
#pragma once

#include <cstddef>

#include "common.hpp"
#include "maddness/amm.hpp"

namespace perfbench {

/// Open-loop Poisson load over loopback TCP into NetServer ->
/// InferenceServer with the write-ahead journal and checkpoints on.
void run_tcp_open(const Args& args, Report& rep);
/// Closed-loop in-process clients submitting large requests against the
/// 3-stage fused pipeline model.
void run_batch_closed(const Args& args, Report& rep);
/// Runs the paper macro (event-driven simulator) on a tiled operator and
/// reports the sim.* per-layer metrics; part of the traced batch_closed
/// run.
void report_sim_layer(const Args& args, Report& rep);

/// Times Amm::encode_batch, Amm::apply_int16 and apply_lut_fused on
/// `rows` rows drawn from `pool` (the workload's mean served batch
/// shape) and reports the kernel.* per-layer metrics. `next_scale` is
/// the fused epilogue's requantization scale.
void report_kernel_rates(Report& rep, const ssma::maddness::Amm& amm,
                         const ssma::maddness::QuantizedActivations& pool,
                         std::size_t rows, float next_scale);

}  // namespace perfbench
