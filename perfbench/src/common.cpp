#include "common.hpp"

#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "maddness/encoder_kernel.hpp"
#include "maddness/lut_kernel.hpp"

namespace perfbench {

std::string fmt(const char* format, ...) {
  va_list ap, ap2;
  va_start(ap, format);
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, format, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, ap2);
  va_end(ap2);
  return out;
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 50.0);
}

double rate_p90(std::vector<double> rates) {
  std::sort(rates.begin(), rates.end());
  return percentile_sorted(rates, 90.0);
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = percentile_sorted(v, 50.0);
  s.p90 = percentile_sorted(v, 90.0);
  s.p99 = percentile_sorted(v, 99.0);
  s.max = v.back();
  return s;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  entries_.push_back(Entry{name, value, unit, note});
}

std::string Report::detail_lines() const {
  std::string out;
  for (const Entry& e : entries_) {
    out += fmt("%-34s %16.6g %-14s", e.name.c_str(), e.value, e.unit.c_str());
    if (!e.note.empty()) out += "  " + e.note;
    out += "\n";
  }
  return out;
}

std::string Report::final_json() const {
  std::string out = fmt("{\"correct\": %s, \"attempted\": %zu, \"failed\": "
                        "%zu, \"metrics\": {",
                        correct() ? "true" : "false", attempted_, failed_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const double v = std::isfinite(e.value) ? e.value : 0.0;
    out += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               i ? ", " : "", e.name.c_str(), v, e.unit.c_str());
  }
  out += "}}";
  return out;
}

void report_common(Report& rep, const std::vector<double>& setup_s) {
  std::string reps;
  for (double s : setup_s) reps += fmt("%s%.3f", reps.empty() ? "" : " ", s);
  rep.metric("setup_s", median(setup_s), "s",
             fmt("median of %zu set-ups: %s", setup_s.size(), reps.c_str()));
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rep.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB",
             "getrusage ru_maxrss");
}

namespace {

std::string cpu_brand() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
}

}  // namespace

std::string host_fingerprint_json(const std::string& source_id) {
  unsigned int a = 0, b = 0, c = 0, d = 0;
  bool avx2 = false, avx512bw = false, avx512vbmi = false,
       avx512vnni = false, avx_vnni = false;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    avx2 = (b >> 5) & 1u;
    avx512bw = (b >> 30) & 1u;
    avx512vbmi = (c >> 1) & 1u;
    avx512vnni = (c >> 11) & 1u;
  }
  if (__get_cpuid_count(7, 1, &a, &b, &c, &d)) avx_vnni = (a >> 4) & 1u;

  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
#if defined(SSMA_TRACE_ENABLED)
  const bool trace_compiled = true;
#else
  const bool trace_compiled = false;
#endif
  std::string brand = cpu_brand();
  std::replace(brand.begin(), brand.end(), '"', '\'');
  return fmt("{\"nproc\": %d, \"cpu_model\": \"%s\", \"avx2\": %s, "
             "\"avx512bw\": %s, \"avx512vbmi\": %s, \"avx512vnni\": %s, "
             "\"avx_vnni\": %s, \"lut_tier\": \"%s\", \"encoder_tier\": "
             "\"%s\", \"ssma_trace_compiled\": %s, \"source\": \"%s\"}",
             nproc, brand.c_str(), avx2 ? "true" : "false",
             avx512bw ? "true" : "false", avx512vbmi ? "true" : "false",
             avx512vnni ? "true" : "false", avx_vnni ? "true" : "false",
             ssma::maddness::kernel_tier_name(
                 ssma::maddness::select_kernel_tier()),
             ssma::maddness::kernel_tier_name(
                 ssma::maddness::select_encoder_tier()),
             trace_compiled ? "true" : "false", source_id.c_str());
}

}  // namespace perfbench
