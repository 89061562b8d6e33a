// Whole-network MADDNESS substitution: walks a trained Network, folds
// each Conv2d+BatchNorm2d pair, trains a MaddnessConv2d per 3x3 conv
// (calibrating each on the float activations reaching that layer), and
// exposes a forward pass that can run either the exact float path or the
// substituted LUT path — the software equivalent of deploying the CNN
// onto the accelerator (Fig. 3), used by the Table II accuracy bench.
//
// Lifetime: borrows non-conv layers (ReLU/pool/linear/...) from the
// source network, which must outlive this object.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "nn/maddness_conv.hpp"
#include "nn/network.hpp"

namespace ssma::nn {

class MaddnessNetwork {
 public:
  struct Options {
    maddness::Config base_cfg = {};
    std::size_t max_calib_rows = 3000;
    std::uint64_t seed = 1;
    /// Propagate calibration through the *approximate* path so each layer
    /// is calibrated on the activation distribution it will actually see
    /// at inference (error-aware calibration). Strongly recommended for
    /// deep networks; the exact path is kept for ablation.
    bool error_aware_calibration = true;
    /// Joint ridge refit of the prototypes (MADDNESS §4.2) — markedly
    /// better reconstruction than plain bucket means for deep stacks.
    bool ridge_prototypes = true;
  };

  /// `trained` must be in its final state; `calibration` is a batch of
  /// representative inputs used to fit the per-layer codebooks.
  MaddnessNetwork(Network& trained, const Tensor& calibration);
  MaddnessNetwork(Network& trained, const Tensor& calibration,
                  const Options& opts);

  /// Forward pass; `use_amm` selects the LUT path vs the exact float
  /// path (identical layer structure, BN already folded in both).
  Tensor forward(const Tensor& x, bool use_amm) const;

  /// Forward pass with every substituted conv's patch matmul delegated
  /// to `exec(conv_idx, q)` — conv_idx matches substituted_amms()
  /// order, q is the layer's quantized im2col batch, and the return
  /// is the int16 accumulators. Serving each layer through a model
  /// registry this way reproduces forward(x, /*use_amm=*/true)
  /// bit-for-bit: the network runs end-to-end with all LUT compute
  /// behind the executor.
  using ConvExecutor = std::function<std::vector<std::int16_t>(
      std::size_t, const maddness::QuantizedActivations&)>;
  Tensor forward_served(const Tensor& x, const ConvExecutor& exec) const;

  std::size_t num_substituted_convs() const { return nconvs_; }

  /// Access to a substituted conv (for driving the circuit simulator).
  const MaddnessConv2d& substituted_conv(std::size_t i) const;

  /// The substituted convs' trained operators in network order — the
  /// stage list engine::register_network exports into a model registry
  /// for served CNN-feature (patch-matmul) workloads.
  std::vector<const maddness::Amm*> substituted_amms() const;

  /// Codebook-aware recovery step: re-trains the network's final Linear
  /// classifier on features produced by the *substituted* path (the
  /// cheap analogue of the codebook-aware training the MADDNESS line of
  /// work uses to retain accuracy). Requires the last stage to be a
  /// Linear layer; mutates that layer in the source network.
  void fine_tune_classifier(const Tensor& images,
                            const std::vector<int>& labels,
                            std::size_t epochs = 30, double lr = 0.05,
                            std::size_t batch = 64,
                            std::uint64_t seed = 11);

 private:
  struct Stage {
    // Exactly one of these is set.
    std::unique_ptr<MaddnessConv2d> mconv;
    Layer* borrowed = nullptr;
    std::vector<Stage> residual_body;  // used when this is a residual
    bool is_residual = false;
  };

  static std::vector<Stage> build_stages(
      const std::vector<Layer*>& layers, Tensor& calib, const Options& opts,
      std::size_t& nconvs, std::vector<const MaddnessConv2d*>& registry);
  static Tensor run_stages(const std::vector<Stage>& stages, const Tensor& x,
                           bool use_amm);
  Tensor run_stages_served(const std::vector<Stage>& stages,
                           const Tensor& x, const ConvExecutor& exec) const;

  std::vector<Stage> stages_;
  std::size_t nconvs_ = 0;
  std::vector<const MaddnessConv2d*> registry_;
};

}  // namespace ssma::nn
