// Dynamic batcher: coalesces queued requests into token batches.
// Dispatch is work-conserving: an idle shard blocks for one request,
// then in one pass takes every queued compatible request that fits
// `max_batch_tokens` (rounded down to the tile alignment) and
// dispatches at once — batches grow only under backlog, never by
// waiting for a fill. Batches are model-affine: a batch only coalesces
// requests pinned to its first request's model handle (never mixing
// models or bank versions), pulling them past other models' queued
// requests — per-model FIFO is preserved, and an oversized compatible
// request still closes the batch rather than being skipped.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "serve/request_queue.hpp"

namespace ssma::serve {

struct BatcherOptions {
  /// Token (activation-row) budget per batch. Requests larger than the
  /// budget still get served — alone, as a batch of one.
  std::size_t max_batch_tokens = 64;
  /// Rounds the token budget down to a multiple of this (e.g. the number
  /// of tokens the macro's tile plan pipelines per pass); 1 = no rounding.
  std::size_t align_tokens = 1;
  /// Starvation bound for model-affine coalescing: the batcher never
  /// pulls a compatible request past another model's request that has
  /// been queued longer than this at batch formation (or whose SLO
  /// deadline has passed by then) — the batch closes instead, letting
  /// the next pop_wait serve the aged head.
  std::chrono::microseconds max_skip_age{2000};
};

struct Batch {
  std::vector<InferenceRequest> requests;
  std::size_t tokens = 0;
  /// Requests dropped during formation because their SLO deadline had
  /// already passed; each was failed with RejectedError
  /// (kDeadlineExpired) before the batch was returned.
  std::size_t expired = 0;
  bool empty() const { return requests.empty(); }
};

class Batcher {
 public:
  explicit Batcher(const BatcherOptions& opts);

  const BatcherOptions& options() const { return opts_; }
  /// Effective per-batch token budget after alignment.
  std::size_t budget_tokens() const { return budget_; }

  /// Blocks for the first request, then takes the compatible requests
  /// already queued, up to the budget, without waiting for more. An
  /// empty batch means the queue is closed and fully drained — the
  /// worker should exit.
  Batch next_batch(RequestQueue& queue) const;

 private:
  BatcherOptions opts_;
  std::size_t budget_;
};

}  // namespace ssma::serve
