// Multi-stage model execution: the handoff between chained LUT stages.
//
// A pipeline model (ModelHandle with >1 stage) chains matmul-shaped
// operators: stage i's int16 accumulators are dequantized with its LUT
// scales, rectified (the uint8 requantization clamp — post-activation
// distributions are non-negative, exactly the paper's inter-layer
// convention), requantized with stage i+1's calibrated activation
// scale, and re-encoded into stage i+1's codebooks. The whole handoff
// is deterministic float->uint8 arithmetic, so replayed pipelines are
// bit-exact regardless of backend or host.
//
// Stage shapes must chain: stage[i+1].cfg().total_dims() ==
// stage[i].lut().nout (ModelHandle validates at construction). Typical
// builds: a CNN feature layer's im2col matmul feeding an MLP head, or a
// stack of dense layers trained with train_chained_stage().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/model_registry.hpp"
#include "maddness/quantize.hpp"

namespace ssma::nn {
class MaddnessNetwork;
}  // namespace ssma::nn

namespace ssma::engine {

/// Builds stage s+1's quantized input from stage s's accumulators:
/// dequantize (prev LUT scales) -> clamp at 0 (ReLU) -> requantize with
/// next.activation_scale(). `acc` is rows x prev.lut().nout.
maddness::QuantizedActivations stage_handoff(
    const maddness::Amm& prev, const maddness::Amm& next,
    const std::vector<std::int16_t>& acc, std::size_t rows);

/// Reference multi-stage apply: Amm::apply_int16 per stage plus
/// stage_handoff between stages. Every backend's run_batch must match
/// this bit-for-bit (single-stage models reduce to plain apply_int16).
std::vector<std::int16_t> pipeline_reference_apply(
    const ModelHandle& model, const maddness::QuantizedActivations& q);

/// Trains a stage whose input distribution is the previous stage's
/// rectified dequantized output (error-aware chaining: the stage is
/// calibrated on the activations it will actually see). `prev_output`
/// is the previous stage's float output on the calibration set (or the
/// raw calibration batch for stage 0); returns the trained stage and
/// writes the stage's own output into `*next_input` for the next call.
maddness::Amm train_chained_stage(const maddness::Config& cfg,
                                  const Matrix& prev_output,
                                  const Matrix& weights,
                                  Matrix* next_input);

/// Registers a whole trained network for end-to-end serving through the
/// fused ExecutionPlan: maximal runs of shape-chaining operators
/// (stage[i+1].cfg().total_dims() == stage[i].lut().nout) become one
/// pipeline model each — executed with fused in-register handoffs —
/// and non-chaining operators become single-stage models. Models are
/// named "<prefix>.segK" in network order; returns the names. Conv
/// stacks generally don't shape-chain (a 3x3 layer consumes 9*C_in
/// patch columns, not the C_out rows the previous layer produced — the
/// im2col hop is the client's), so CNNs typically yield one segment per
/// layer while dense train_chained_stage() stacks collapse into a
/// single fused pipeline model.
std::vector<std::string> register_network(ModelRegistry& registry,
                                          const std::string& prefix,
                                          const nn::MaddnessNetwork& net);

/// The chaining core of register_network over an explicit operator
/// list, for callers that assemble stage lists without a
/// MaddnessNetwork (and for testing the segmentation directly).
std::vector<std::string> register_segments(
    ModelRegistry& registry, const std::string& prefix,
    const std::vector<const maddness::Amm*>& amms);

}  // namespace ssma::engine
