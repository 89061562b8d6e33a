// Per-layer attribution from the program's own span collector
// (telemetry::TraceSession). The benchmark switches the session on only
// for a traced window, then reduces the collected spans to per-stage
// duration samples here.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace perfbench {

using ssma::telemetry::Stage;

class TraceCapture {
 public:
  /// Span durations of `stage` in microseconds; with `track` set, only
  /// spans recorded on threads whose track name equals it.
  std::vector<double> durations_us(Stage stage,
                                   const char* track = nullptr) const;
  /// Self time of `parent` spans: each span's duration minus the spans
  /// of `child` stages nested inside it on the same thread.
  std::vector<double> self_us(Stage parent,
                              const std::vector<Stage>& children) const;
  /// Engine spans of one batch summed over their stage tags: one sample
  /// per request-id range (a batch), in microseconds.
  std::vector<double> per_batch_us(Stage stage) const;
  /// Per batch: the batch's ack-span end minus the moment the worker
  /// picked it up (the end of its requests' queue-wait spans).
  std::vector<double> service_us() const;
  std::size_t count(Stage stage) const;
  /// Spans overwritten by ring wrap before they were collected.
  std::uint64_t lost() const { return lost_; }

 private:
  friend TraceCapture trace_end();
  std::vector<ssma::telemetry::TraceSession::TrackEvents> tracks_;
  std::uint64_t lost_ = 0;
};

/// Sizes the per-thread rings, drops earlier spans and switches the
/// session on.
void trace_begin();
/// Switches the session off and collects every thread's spans.
TraceCapture trace_end();

/// Overhead of tracing on a throughput-like figure: untraced over traced
/// minus one (positive when tracing slows the program down).
inline double trace_overhead(double untraced, double traced) {
  return traced > 0.0 ? untraced / traced - 1.0 : 0.0;
}

}  // namespace perfbench
