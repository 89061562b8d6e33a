// Prototype learning: given trained hash trees and the training
// activations, derive the K=16 prototype vectors per codebook. Two modes:
//   * bucket means — each prototype is the mean of its leaf's vectors,
//     support restricted to the codebook's own subspace;
//   * joint ridge refit — MADDNESS §4.2: solve
//       argmin_P ||X - G P||_F^2 + lambda ||P||_F^2
//     where G is the N x (M*16) one-hot encoding matrix. Prototypes gain
//     support over the full input dimension, which the LUT precomputation
//     absorbs for free.
#pragma once

#include <vector>

#include "maddness/config.hpp"
#include "maddness/hash_tree.hpp"
#include "maddness/quantize.hpp"
#include "util/matrix.hpp"

namespace ssma::maddness {

/// Prototypes for all codebooks: (M * 16) x total_dims. Row (c*16 + k) is
/// prototype k of codebook c. Under kBucketMeans, entries outside
/// codebook c's dim range [c*subvec_dim, (c+1)*subvec_dim) are zero.
struct Prototypes {
  Matrix p;          ///< (M*K) x D, in the *dequantized float* domain
  Config cfg;

  const float* row(int codebook, int proto) const {
    return p.row(static_cast<std::size_t>(codebook) * cfg.nprototypes() +
                 proto);
  }
};

/// Encodes every row of `q` with the per-codebook trees, row-at-a-time
/// through HashTree::encode. Returns N x M codes (leaf index per
/// codebook). This is the scalar reference path the vectorized batch
/// encoder (encoder_kernel.hpp) is tested bit-exact against; hot-path
/// callers go through Amm::encode_batch instead.
std::vector<std::uint8_t> encode_all(const Config& cfg,
                                     const std::vector<HashTree>& trees,
                                     const QuantizedActivations& q);

/// Learns prototypes from training data and its codes.
Prototypes learn_prototypes(const Config& cfg,
                            const std::vector<HashTree>& trees,
                            const QuantizedActivations& train);

}  // namespace ssma::maddness
