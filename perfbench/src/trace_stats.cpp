#include "trace_stats.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

using ssma::telemetry::SpanEvent;
using ssma::telemetry::TraceSession;

namespace {

double dur_us(const SpanEvent& e) {
  return static_cast<double>(e.t_end_ns - e.t_begin_ns) / 1e3;
}

}  // namespace

void trace_begin() {
  TraceSession& ts = TraceSession::instance();
  // Large enough that a traced window at the highest rate does not wrap;
  // the slab is mapped lazily, so unused slots cost no memory.
  ts.set_ring_capacity(std::size_t{1} << 19);
  ts.clear();
  ts.enable();
}

TraceCapture trace_end() {
  TraceSession& ts = TraceSession::instance();
  ts.disable();
  TraceCapture cap;
  cap.tracks_ = ts.collect();
  for (const auto& t : cap.tracks_)
    cap.lost_ += t.pushed - static_cast<std::uint64_t>(t.events.size());
  return cap;
}

std::vector<double> TraceCapture::durations_us(Stage stage,
                                               const char* track) const {
  std::vector<double> out;
  for (const auto& t : tracks_) {
    if (track != nullptr && t.track != track) continue;
    for (const SpanEvent& e : t.events)
      if (e.stage == stage) out.push_back(dur_us(e));
  }
  return out;
}

std::vector<double> TraceCapture::self_us(
    Stage parent, const std::vector<Stage>& children) const {
  std::vector<double> out;
  for (const auto& t : tracks_) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
    for (const SpanEvent& e : t.events)
      if (std::find(children.begin(), children.end(), e.stage) !=
          children.end())
        kids.emplace_back(e.t_begin_ns, e.t_end_ns);
    std::sort(kids.begin(), kids.end());
    for (const SpanEvent& e : t.events) {
      if (e.stage != parent) continue;
      std::uint64_t covered = 0;
      auto it = std::lower_bound(
          kids.begin(), kids.end(),
          std::make_pair(e.t_begin_ns, std::uint64_t{0}));
      for (; it != kids.end() && it->first < e.t_end_ns; ++it)
        if (it->second <= e.t_end_ns) covered += it->second - it->first;
      const std::uint64_t total = e.t_end_ns - e.t_begin_ns;
      out.push_back(static_cast<double>(total - std::min(total, covered)) /
                    1e3);
    }
  }
  return out;
}

std::vector<double> TraceCapture::per_batch_us(Stage stage) const {
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> sums;
  for (const auto& t : tracks_)
    for (const SpanEvent& e : t.events)
      if (e.stage == stage) sums[{e.id_lo, e.id_hi}] += dur_us(e);
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& kv : sums) out.push_back(kv.second);
  return out;
}

std::vector<double> TraceCapture::service_us() const {
  std::unordered_map<std::uint64_t, std::uint64_t> picked_up;
  for (const auto& t : tracks_)
    for (const SpanEvent& e : t.events)
      if (e.stage == Stage::kQueueWait) picked_up[e.id_lo] = e.t_end_ns;
  std::vector<double> out;
  for (const auto& t : tracks_)
    for (const SpanEvent& e : t.events) {
      if (e.stage != Stage::kAck) continue;
      const auto it = picked_up.find(e.id_lo);
      if (it == picked_up.end() || it->second > e.t_end_ns) continue;
      out.push_back(static_cast<double>(e.t_end_ns - it->second) / 1e3);
    }
  return out;
}

std::size_t TraceCapture::count(Stage stage) const {
  std::size_t n = 0;
  for (const auto& t : tracks_)
    for (const SpanEvent& e : t.events)
      if (e.stage == stage) ++n;
  return n;
}

}  // namespace perfbench
