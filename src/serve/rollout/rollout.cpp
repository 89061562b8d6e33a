#include "serve/rollout/rollout.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "maddness/amm.hpp"
#include "maddness/quantize.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"

namespace ssma::serve::rollout {

namespace {

/// FNV-1a over the model name: stable per-model reservoir sub-stream
/// from one RolloutOptions::seed.
std::uint64_t name_seed(std::uint64_t seed, const std::string& name) {
  std::uint64_t h = 14695981039346656037ULL ^ seed;
  for (const char ch : name) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Per-row drift check, saturating-clamp-aware: an element pair where
/// both sides sit on the same int16 rail compares equal regardless of
/// tolerance (the pre-clamp accumulators may differ; the serving
/// contract is the post-clamp value). Returns the number of drifted
/// rows and maxes `max_abs` over non-rail element diffs.
std::size_t count_drift(const std::int16_t* live, const std::int16_t* shadow,
                        std::size_t rows, std::size_t nout,
                        std::int64_t tolerance, std::int64_t* max_abs) {
  constexpr std::int16_t kHi = std::numeric_limits<std::int16_t>::max();
  constexpr std::int16_t kLo = std::numeric_limits<std::int16_t>::min();
  std::size_t drifted = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    bool row_drifts = false;
    for (std::size_t c = 0; c < nout; ++c) {
      const std::int16_t a = live[r * nout + c];
      const std::int16_t b = shadow[r * nout + c];
      if (a == b) continue;
      if ((a == kHi && b == kHi) || (a == kLo && b == kLo)) continue;
      const std::int64_t d =
          std::abs(static_cast<std::int64_t>(a) - static_cast<std::int64_t>(b));
      *max_abs = std::max(*max_abs, d);
      if (d > tolerance) row_drifts = true;
    }
    if (row_drifts) ++drifted;
  }
  return drifted;
}

}  // namespace

const char* to_string(RolloutState s) {
  switch (s) {
    case RolloutState::kIdle: return "idle";
    case RolloutState::kSampling: return "sampling";
    case RolloutState::kTraining: return "training";
    case RolloutState::kShadowing: return "shadowing";
    case RolloutState::kPromoted: return "promoted";
    case RolloutState::kRolledBack: return "rolled_back";
  }
  return "?";
}

std::string RolloutReport::to_text() const {
  std::ostringstream os;
  os << "model=" << model << " state=" << to_string(state)
     << " live=@" << live_version << " candidate=@" << candidate_version
     << " seen_rows=" << seen_rows << " sampled_rows=" << sampled_rows
     << " shadow_rows=" << shadow_rows
     << " shadow_batches=" << shadow_batches
     << " drift_rows=" << drift_rows
     << " drift_fraction=" << drift_fraction
     << " error_budget=" << error_budget
     << " max_abs_drift=" << max_abs_drift
     << " tap_dropped=" << tap_dropped;
  return os.str();
}

RolloutManager::RolloutManager(InferenceServer& server,
                               const RolloutOptions& opts)
    : server_(server), opts_(opts) {
  SSMA_CHECK(opts_.reservoir_rows >= 1);
  SSMA_CHECK(opts_.min_train_rows >= 1 &&
             opts_.min_train_rows <= opts_.reservoir_rows);
  SSMA_CHECK(opts_.min_shadow_rows >= 1);
  SSMA_CHECK(opts_.error_budget >= 0.0 && opts_.error_budget <= 1.0);
  shadow_engine_ = engine::make_engine(opts_.engine);
}

RolloutManager::~RolloutManager() { stop(); }

void RolloutManager::manage(const std::string& name, Matrix weights,
                            const maddness::Config& cfg) {
  cfg.validate();
  const std::uint64_t live = server_.registry().latest_version(name);
  SSMA_CHECK_MSG(live > 0, "manage of unregistered model " << name);
  const auto cols = static_cast<std::size_t>(cfg.total_dims());
  SSMA_CHECK_MSG(weights.rows() == cols,
                 "rollout weights for " << name << " are " << weights.rows()
                                        << " x " << weights.cols()
                                        << ", model cols=" << cols);
  std::lock_guard<std::mutex> lock(mu_);
  SSMA_CHECK_MSG(managed_.find(name) == managed_.end(),
                 "model " << name << " already under rollout management");
  Managed& m = managed_[name];
  m.name = name;
  m.cfg = cfg;
  m.nout = weights.cols();
  m.weights = std::move(weights);
  m.cols = cols;
  m.live_version = live;
  m.rng.seed(name_seed(opts_.seed, name));
  m.reservoir.assign(opts_.reservoir_rows * m.cols, 0);
  m.mailbox_codes.reserve(opts_.max_batch_rows * m.cols);
  m.mailbox_out.reserve(opts_.max_batch_rows * m.nout);
  m.state = RolloutState::kSampling;
}

void RolloutManager::shadow_existing(const std::string& name,
                                     std::uint64_t staged_version) {
  engine::ModelRef cand = server_.registry().resolve(name, staged_version);
  const std::uint64_t live = server_.registry().latest_version(name);
  SSMA_CHECK_MSG(live > 0, "shadow_existing of unregistered model " << name);
  std::lock_guard<std::mutex> lock(mu_);
  SSMA_CHECK_MSG(managed_.find(name) == managed_.end(),
                 "model " << name << " already under rollout management");
  Managed& m = managed_[name];
  m.name = name;
  m.cols = cand->cols();
  m.nout = cand->nout();
  m.live_version = live;
  m.rng.seed(name_seed(opts_.seed, name));
  m.mailbox_codes.reserve(opts_.max_batch_rows * m.cols);
  m.mailbox_out.reserve(opts_.max_batch_rows * m.nout);
  m.candidate_version = staged_version;
  m.candidate = std::move(cand);
  m.state = RolloutState::kShadowing;
}

void RolloutManager::start() {
  SSMA_CHECK_MSG(!started_, "RolloutManager already started");
  started_ = true;
  stop_.store(false, std::memory_order_release);
  controller_ = std::thread([this] { controller_main(); });
  server_.set_batch_observer(this);
}

void RolloutManager::stop() {
  if (!started_) return;
  server_.set_batch_observer(nullptr);
  stop_.store(true, std::memory_order_release);
  cv_.notify_all();
  if (controller_.joinable()) controller_.join();
  started_ = false;
}

void RolloutManager::on_batch(const engine::ModelHandle& model,
                              const maddness::QuantizedActivations& q,
                              const std::vector<std::int16_t>& out,
                              double service_ns) {
  // Shard hot path: try-lock only. A contended tap is a dropped sample,
  // never a stall — the controller holds mu_ for microseconds at a
  // time, so drops stay rare and are surfaced in the report.
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    tap_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto it = managed_.find(model.name());
  if (it == managed_.end()) return;
  Managed& m = it->second;
  // Only the live bank's traffic feeds the rollout: a batch on a
  // pinned old version (or a mismatched geometry) is ignored.
  if (model.version() != m.live_version || q.cols != m.cols ||
      out.size() != q.rows * m.nout)
    return;
  m.batch_counter++;
  if (m.state == RolloutState::kSampling) {
    if (opts_.sample_every > 1 &&
        (m.batch_counter % opts_.sample_every) != 0)
      return;
    if (m.reservoir_scale == 0.0f) m.reservoir_scale = q.scale;
    // Algorithm R over the row stream: slot j < capacity replaced with
    // probability capacity / seen — a uniform sample of all rows ever
    // offered, in bounded memory.
    for (std::size_t r = 0; r < q.rows; ++r) {
      m.seen_rows++;
      std::size_t slot;
      if (m.reservoir_size < opts_.reservoir_rows) {
        slot = m.reservoir_size++;
      } else {
        const std::uint64_t j = m.rng() % m.seen_rows;
        if (j >= opts_.reservoir_rows) continue;
        slot = static_cast<std::size_t>(j);
      }
      std::copy(q.row(r), q.row(r) + m.cols,
                m.reservoir.data() + slot * m.cols);
    }
  } else if (m.state == RolloutState::kShadowing) {
    if (m.mailbox_full) return;  // controller still digesting the last
    if (opts_.shadow_every > 1 &&
        (m.batch_counter % opts_.shadow_every) != 0)
      return;
    const std::size_t rows = std::min(q.rows, opts_.max_batch_rows);
    if (rows == 0) return;
    m.mailbox_rows = rows;
    m.mailbox_scale = q.scale;
    m.mailbox_live_ns = service_ns;
    // assign() reuses the capacity reserved at manage() — no hot-path
    // allocation once the mailbox has seen its first batch shape.
    m.mailbox_codes.assign(q.codes.begin(),
                           q.codes.begin() +
                               static_cast<std::ptrdiff_t>(rows * m.cols));
    m.mailbox_out.assign(out.begin(),
                         out.begin() +
                             static_cast<std::ptrdiff_t>(rows * m.nout));
    m.mailbox_full = true;
  }
}

void RolloutManager::controller_main() {
  SSMA_TRACE_SET_THREAD("rollout-controller");
#if defined(__linux__)
  // Training and shadow execution must yield to the serving shards when
  // cores are scarce: drop this thread to the lowest CFS weight. Best
  // effort — an unprivileged failure just means fair scheduling.
  (void)setpriority(PRIO_PROCESS,
                    static_cast<id_t>(::syscall(SYS_gettid)), 19);
#endif
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_.load(std::memory_order_acquire)) {
    bool progressed = false;
    for (auto& [name, m] : managed_) {
      (void)name;
      progressed = step(m, lock) || progressed;
    }
    if (!progressed) cv_.wait_for(lock, opts_.poll);
  }
}

bool RolloutManager::step(Managed& m, std::unique_lock<std::mutex>& lock) {
  switch (m.state) {
    case RolloutState::kSampling:
      if (m.reservoir_size >= opts_.min_train_rows) {
        train_and_stage(m, lock);
        return true;
      }
      return false;
    case RolloutState::kShadowing:
      if (m.mailbox_full) return run_shadow_batch(m, lock);
      return false;
    default:
      return false;
  }
}

void RolloutManager::train_and_stage(Managed& m,
                                     std::unique_lock<std::mutex>& lock) {
  // Flip the state first: from here the tap ignores this model, so the
  // reservoir is frozen and safe to read without the lock — retraining
  // must not stall the shard taps of other managed models.
  m.state = RolloutState::kTraining;
  const std::size_t rows = m.reservoir_size;
  const float scale = m.reservoir_scale;
  lock.unlock();

  Matrix acts(rows, m.cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < m.cols; ++c)
      acts(r, c) = static_cast<float>(m.reservoir[r * m.cols + c]) * scale;
  const maddness::Amm cand = maddness::Amm::train(m.cfg, acts, m.weights);
  // Staging force-checkpoints: the candidate is durable (and shipped to
  // replication followers) before the first shadow batch references it.
  const std::uint64_t version =
      server_.stage_model(m.name, cand.save_string());
  engine::ModelRef pin = server_.registry().resolve(m.name, version);

  lock.lock();
  m.candidate_version = version;
  m.candidate = std::move(pin);
  m.state = RolloutState::kShadowing;
  cv_.notify_all();
}

bool RolloutManager::run_shadow_batch(Managed& m,
                                      std::unique_lock<std::mutex>& lock) {
  // Drain the mailbox by swap (keeps both sides' capacity), then do the
  // mirror execution unlocked on the manager's spare engine.
  std::vector<std::uint8_t>& codes = scratch_codes_;
  std::vector<std::int16_t>& live_out = scratch_live_out_;
  codes.swap(m.mailbox_codes);
  live_out.swap(m.mailbox_out);
  const std::size_t rows = m.mailbox_rows;
  const float scale = m.mailbox_scale;
  const double live_ns = m.mailbox_live_ns;
  m.mailbox_full = false;
  const engine::ModelRef candidate = m.candidate;  // pin across unlock
  lock.unlock();

  double shadow_ns = 0.0;
  {
    SSMA_TRACE_SPAN(kShadowExecute);
    // The candidate calibrated its own activation scale on the
    // reservoir, so live codes are re-expressed in the candidate's
    // quantized domain: dequantize at the live scale, requantize at the
    // candidate's.
    Matrix x(rows, m.cols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < m.cols; ++c)
        x(r, c) = static_cast<float>(codes[r * m.cols + c]) * scale;
    const maddness::QuantizedActivations qc = maddness::quantize_activations(
        x, candidate->stage(0).activation_scale());
    const Clock::time_point t0 = Clock::now();
    shadow_engine_->run_batch(*candidate, qc, shadow_out_);
    shadow_ns = std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count();
  }

  std::size_t drift = 0;
  std::int64_t max_abs = 0;
  {
    SSMA_TRACE_SPAN(kShadowCompare);
    bool faulted = false;
    if (opts_.fault) {
      const recovery::FaultAction act =
          opts_.fault->poll(recovery::FaultSite::kShadowCompare);
      if (act.kind == recovery::FaultKind::kDelay)
        std::this_thread::sleep_for(act.delay);
      else if (act)
        faulted = true;
    }
    if (faulted) {
      // Injected drift: the whole mirrored batch counts as fully
      // drifted — the deterministic regression the rollback tests arm.
      drift = rows;
      max_abs = std::numeric_limits<std::int16_t>::max();
    } else {
      drift = count_drift(live_out.data(), shadow_out_.data(), rows,
                          m.nout, opts_.drift_tolerance, &max_abs);
    }
  }
  server_.record_shadow(m.name, rows, drift, max_abs, live_ns, shadow_ns);

  lock.lock();
  m.shadow_rows += rows;
  m.shadow_batches++;
  m.drift_rows += drift;
  m.max_abs_drift = std::max(m.max_abs_drift, max_abs);
  m.live_ns_sum += live_ns;
  m.shadow_ns_sum += shadow_ns;
  if (m.state == RolloutState::kShadowing &&
      m.shadow_rows >= opts_.min_shadow_rows) {
    const double frac = static_cast<double>(m.drift_rows) /
                        static_cast<double>(m.shadow_rows);
    decide(m, lock, frac <= opts_.error_budget);
    return true;
  }
  return false;
}

void RolloutManager::decide(Managed& m, std::unique_lock<std::mutex>& lock,
                            bool promote) {
  const std::string name = m.name;
  const std::uint64_t version = m.candidate_version;
  // Terminal state lands before the unlock so the tap (and a racing
  // force_* call) can no longer act on this rollout.
  m.state = promote ? RolloutState::kPromoted : RolloutState::kRolledBack;
  engine::ModelRef doomed;
  if (!promote) doomed = std::move(m.candidate);
  lock.unlock();
  // Both verdicts force-checkpoint inside the server, so the decision
  // is durable — and streams to replication followers — before any
  // client can observe the new "@latest".
  if (promote)
    server_.promote_model(name, version);
  else
    server_.discard_model(name, version);
  doomed.reset();
  lock.lock();
  if (promote) m.live_version = version;
  m.verdict_applied = true;
  cv_.notify_all();
}

RolloutReport RolloutManager::report_locked(const Managed& m) const {
  RolloutReport r;
  r.model = m.name;
  r.state = m.state;
  r.live_version = m.live_version;
  r.candidate_version = m.candidate_version;
  r.seen_rows = m.seen_rows;
  r.sampled_rows = m.reservoir_size;
  r.shadow_rows = m.shadow_rows;
  r.shadow_batches = m.shadow_batches;
  r.drift_rows = m.drift_rows;
  r.max_abs_drift = m.max_abs_drift;
  r.drift_fraction =
      m.shadow_rows == 0 ? 0.0
                         : static_cast<double>(m.drift_rows) /
                               static_cast<double>(m.shadow_rows);
  r.error_budget = opts_.error_budget;
  r.live_ns_sum = m.live_ns_sum;
  r.shadow_ns_sum = m.shadow_ns_sum;
  r.tap_dropped = tap_dropped_.load(std::memory_order_relaxed);
  return r;
}

RolloutReport RolloutManager::report(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = managed_.find(name);
  SSMA_CHECK_MSG(it != managed_.end(),
                 "model " << name << " is not under rollout management");
  return report_locked(it->second);
}

std::vector<RolloutReport> RolloutManager::reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RolloutReport> out;
  out.reserve(managed_.size());
  for (const auto& [name, m] : managed_) {
    (void)name;
    out.push_back(report_locked(m));
  }
  return out;
}

RolloutState RolloutManager::wait_for_decision(
    const std::string& name, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = managed_.find(name);
  SSMA_CHECK_MSG(it != managed_.end(),
                 "model " << name << " is not under rollout management");
  const auto decided = [&] { return it->second.verdict_applied; };
  cv_.wait_for(lock, timeout, decided);
  return it->second.state;
}

void RolloutManager::force_promote(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = managed_.find(name);
  SSMA_CHECK_MSG(it != managed_.end(),
                 "model " << name << " is not under rollout management");
  SSMA_CHECK_MSG(it->second.state == RolloutState::kShadowing,
                 "force_promote of " << name << " in state "
                                     << to_string(it->second.state)
                                     << " (no candidate shadowing)");
  decide(it->second, lock, true);
}

void RolloutManager::force_rollback(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = managed_.find(name);
  SSMA_CHECK_MSG(it != managed_.end(),
                 "model " << name << " is not under rollout management");
  SSMA_CHECK_MSG(it->second.state == RolloutState::kShadowing,
                 "force_rollback of " << name << " in state "
                                      << to_string(it->second.state)
                                      << " (no candidate shadowing)");
  decide(it->second, lock, false);
}

}  // namespace ssma::serve::rollout
