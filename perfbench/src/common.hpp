// Shared plumbing of the benchmark driver: command-line arguments, raw
// sample summaries, the metric report that becomes the driver's last
// stdout line, and the host fingerprint printed with every run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline double seconds_between(SteadyClock::time_point a,
                              SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Flip one bit of the first verified output, to prove that the
  /// output check fails the run (smoke test only).
  bool corrupt = false;
  /// Scratch directory for journals and checkpoints.
  std::string workdir = ".bench_build/work";
  /// Source identity of the program under test (commit or digest).
  std::string source_id = "unknown";
};

/// Set-ups per run; setup_s is their median. One builds what the run
/// measures; the others are torn down at once, spread over the run where
/// that leaves the resident set alone (batch_closed), so the median
/// samples the host across the run, not only its first seconds.
inline constexpr int kSetups = 5;

/// Runs `fn` and appends its duration in seconds to `out`.
template <typename Fn>
void timed(std::vector<double>& out, Fn&& fn) {
  const auto t0 = SteadyClock::now();
  fn();
  out.push_back(seconds_between(t0, SteadyClock::now()));
}

/// Rate statistic for throughput figures: the 90th percentile of
/// per-slice (or per-call) rates. The 4-vCPU Xeon VM the benchmark was
/// tuned on runs in two speed modes about 1.3-1.6x apart (a busy SMT
/// sibling); the upper decile reads the uncontended mode, which a
/// median reads only when that mode held most of the run.
double rate_p90(std::vector<double> rates);

/// Nearest-rank percentile of an ascending-sorted sample (p in [0,100]).
double percentile_sorted(const std::vector<double>& sorted, double p);
double median(std::vector<double> v);

/// Percentile summary of raw samples; n is reported next to every
/// percentile so a reader can judge how many samples lie beyond it.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};
Summary summarize(std::vector<double> v);

/// Collects metrics, operation counts and the correctness verdict, and
/// renders the driver's output.
class Report {
 public:
  /// `note` is free text for the human-readable detail line (sample
  /// counts, bases of ratios, "simulated", "computed").
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  void count_ops(std::size_t attempted, std::size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void mismatch(std::size_t n = 1) { mismatches_ += n; }
  std::size_t mismatches() const { return mismatches_; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  bool correct() const { return mismatches_ == 0; }

  /// One line per metric: "name value unit  [note]".
  std::string detail_lines() const;
  /// The single-line JSON result object that ends the output.
  std::string final_json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t mismatches_ = 0;
};

/// Records the end-to-end metrics that need no workload knowledge: the
/// median of the set-up repetitions and the process's peak resident set.
/// Failed operations are counted in the result line's `failed`.
void report_common(Report& rep, const std::vector<double>& setup_s);

/// Host fingerprint as a JSON object: nproc, CPU model, ISA flags,
/// selected kernel tiers, whether span tracing is compiled in, and the
/// source identity.
std::string host_fingerprint_json(const std::string& source_id);

std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
