// Kernel rates measured from outside the serving stack, by calling the
// public kernel entry points directly at the served batch shape.
#include <algorithm>
#include <vector>

#include "maddness/encoder_kernel.hpp"
#include "maddness/lut_kernel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr double kSecondsPerKernel = 0.25;

/// Runs `fn` repeatedly for about kSecondsPerKernel; returns calls/s of
/// the median 10-call block, so a preempted block does not drag it down.
template <typename Fn>
double calls_per_s(Fn&& fn) {
  fn();  // warm caches and output capacities
  std::vector<double> block_rates;
  const auto start = SteadyClock::now();
  while (seconds_between(start, SteadyClock::now()) < kSecondsPerKernel) {
    const auto t0 = SteadyClock::now();
    for (int i = 0; i < 10; ++i) fn();
    block_rates.push_back(10.0 / seconds_between(t0, SteadyClock::now()));
  }
  return median(block_rates);
}

}  // namespace

void report_kernel_rates(Report& rep, const ssma::maddness::Amm& amm,
                         const ssma::maddness::QuantizedActivations& pool,
                         std::size_t rows, float next_scale) {
  using namespace ssma::maddness;
  rows = std::max<std::size_t>(rows, 1);
  QuantizedActivations q;
  q.rows = rows;
  q.cols = pool.cols;
  q.scale = pool.scale;
  q.codes.resize(rows * pool.cols);
  for (std::size_t r = 0; r < rows; ++r)
    std::copy_n(pool.row(r % pool.rows), pool.cols,
                q.codes.begin() + static_cast<std::ptrdiff_t>(r * pool.cols));

  EncodeScratch scratch;
  EncodedBatch enc;
  const double rows_d = static_cast<double>(rows);
  const double enc_rate =
      rows_d * calls_per_s([&] { amm.encode_batch(q, scratch, enc); });
  std::vector<std::int16_t> out;
  const double lut_rate =
      rows_d * calls_per_s([&] { amm.apply_int16(enc, out); });
  const LutBankPacked& lut = amm.packed_lut();
  std::vector<std::uint8_t> dst(rows * static_cast<std::size_t>(lut.nout));
  const FusedEpilogue ep{next_scale};
  const KernelTier tier = select_kernel_tier();
  const double fused_rate = rows_d * calls_per_s([&] {
    apply_lut_fused(lut, enc, ep, tier, dst.data());
  });

  const std::string shape =
      fmt("%zu rows x %zu cols, %d codebooks, %d outputs", rows, q.cols,
          amm.cfg().ncodebooks, lut.nout);
  rep.metric("kernel.encode_rows_per_s", enc_rate, "rows/s",
             "Amm::encode_batch at " + shape);
  rep.metric("kernel.lut_rows_per_s", lut_rate, "rows/s",
             "Amm::apply_int16 at " + shape);
  rep.metric("kernel.fused_rows_per_s", fused_rate, "rows/s",
             "apply_lut_fused at " + shape);
  // Computed from tensor shapes, not measured: codes read + int16
  // outputs written per row, plus the LUT bank amortized over the batch.
  const double ncb = amm.cfg().ncodebooks;
  const double nout = lut.nout;
  const double bank = ncb * amm.cfg().nprototypes() * nout;
  rep.metric("kernel.lut_bytes_per_row", ncb + 2.0 * nout + bank / rows_d,
             "B/row-computed",
             "computed from shapes: codes + int16 outputs + LUT bank / rows");
}

}  // namespace perfbench
