// InferenceServer — the public facade of the serving runtime, v2: a
// versioned multi-model registry fronting a backend-pluggable engine
// pool. Clients register models (hot, under load), then submit
// quantized activation rows against a model ref; futures resolve to
// int16 outputs bit-exact vs the model's reference decode.
//
//   InferenceServer server(opts);                  // spawns workers
//   server.register_model("embed", amm);           // -> version 1
//   auto fut = server.submit("embed@latest", codes, rows);
//   InferenceResult r = fut.get();                 // r.model_version == 1
//   server.register_model("embed", retrained);     // -> v2, zero downtime
//   server.shutdown();                             // drain + join
//
// Hot-swap semantics: submit() pins the resolved ModelHandle into the
// request, so registering a new version never changes what an admitted
// request computes — in-flight batches finish on the old bank (kept
// alive by the shared_ptr pin), later submits resolve the new one.
//
// With ServerOptions::recovery wired up, the server write-ahead-journals
// every accepted request (tagged with its pinned name@version),
// snapshots the whole registry into versioned CRC-checked checkpoints,
// supervises crashed worker shards back to life, and — after a hard
// crash — restores from the latest checkpoint and replays the journal's
// unacknowledged requests bit-exactly, each on the exact bank version
// it originally pinned:
//
//   auto rs = recovery::recover_state(ckpts, journal_path);
//   auto server = InferenceServer::restore(rs, opts);
//   auto futs = server->replay(rs.journal.unacknowledged);
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ppa_report.hpp"
#include "engine/execution_engine.hpp"
#include "engine/model_registry.hpp"
#include "serve/metrics.hpp"
#include "serve/request_queue.hpp"
#include "serve/worker_pool.hpp"

namespace ssma::serve {

namespace recovery {
struct AcceptedRecord;
class CheckpointManager;
struct RecoveredState;
}  // namespace recovery

namespace replication {
class ReplicationLog;
}  // namespace replication

/// What a future holds when a request is refused because the server is
/// draining or shut down — a typed, immediate rejection, never a hang.
/// Now a RejectedError (reason() == kShutdown); kept as a distinct type
/// so pre-admission catch sites keep compiling.
class ShutdownError : public RejectedError {
 public:
  explicit ShutdownError(const std::string& what)
      : RejectedError(RejectReason::kShutdown, what) {}
};

/// Optional per-request admission context for submit(). The plain
/// overloads are equivalent to passing a default-constructed one.
struct SubmitExtras {
  Priority priority = Priority::kNormal;
  /// Absolute SLO deadline; max() = none. An already-expired deadline
  /// is refused at submit (kDeadlineExpired) before it can be journaled.
  Clock::time_point deadline = Clock::time_point::max();
  /// Admission identity (metrics attribution; the admission controller
  /// rate-limits by this upstream of submit()).
  std::string tenant;
  /// When true, a full queue is a typed kQueueFull rejection instead of
  /// blocking the caller — the network event loop must never park in
  /// submit().
  bool nonblocking = false;
  /// Completion hook copied onto the request; see
  /// InferenceRequest::on_done. Fires for rejections too.
  std::function<void(const InferenceResult*, const std::exception_ptr&)>
      on_done;
};

/// Fault-tolerance wiring. All pointers are borrowed (not owned) and
/// must outlive the server.
struct RecoveryOptions {
  /// Write-ahead journal: accept records before enqueue, ack records
  /// after fulfillment.
  recovery::RequestJournal* journal = nullptr;
  /// Checkpoint store; the server writes a version at startup and on
  /// every model registration so a crash at any later point can
  /// restore every bank a journaled request may reference.
  recovery::CheckpointManager* checkpoints = nullptr;
  /// Snapshot cadence: a checkpoint every N accepted requests
  /// (0 = only the startup/registration checkpoints).
  std::size_t checkpoint_every = 0;
  /// Deterministic fault hook, threaded through admission, the queue,
  /// the worker pool, and checkpoint writes.
  recovery::FaultInjector* fault = nullptr;
  /// Leader-side replication endpoint (journal streaming + checkpoint
  /// shipping). When set, the worker ack path enforces its ack mode:
  /// a response is not acknowledged until the request's journal record
  /// is replicated past the configured watermark (sync/window), making
  /// follower promotion zero-RPO for acked writes.
  replication::ReplicationLog* replication = nullptr;
  /// Supervise shards: respawn crashed workers and requeue their
  /// in-flight batch.
  bool supervise = false;
  int max_respawns_per_shard = 3;
};

struct ServerOptions {
  int num_workers = 4;
  std::size_t queue_capacity = 1024;  ///< requests; push blocks when full
  BatcherOptions batcher;
  /// Backend + macro shape + pacing for every shard's private engine.
  engine::EngineOptions engine;
  RecoveryOptions recovery;
};

class InferenceServer {
 public:
  /// Starts the worker pool over an empty registry; register models
  /// before (or while) submitting against them.
  explicit InferenceServer(const ServerOptions& opts);
  /// Starts over an existing registry (shared with other owners; e.g.
  /// pre-populated offline or shared across servers).
  /// `first_request_id` seeds the admission watermark — restore() passes
  /// the recovered one so even the constructor's startup checkpoint
  /// carries it.
  InferenceServer(std::shared_ptr<engine::ModelRegistry> registry,
                  const ServerOptions& opts,
                  std::uint64_t first_request_id = 0);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Builds a server from recovered state: the checkpoint's registry,
  /// id watermark and lifetime metrics counters restored. Call replay()
  /// with the journal's unacknowledged requests next.
  static std::unique_ptr<InferenceServer> restore(
      const recovery::RecoveredState& rs, const ServerOptions& opts);

  // ------------------------------------------------------ registry
  /// Registers a new version of `name` (atomic bump) and — when
  /// checkpointing is wired — immediately checkpoints the registry, so
  /// every admissible version is durable before it can be journaled.
  /// Safe under full load: this is the zero-downtime hot-swap entry.
  std::uint64_t register_model(const std::string& name,
                               const maddness::Amm& amm);
  std::uint64_t register_model(const std::string& name, std::string blob);
  std::uint64_t register_pipeline(
      const std::string& name,
      const std::vector<const maddness::Amm*>& stages);
  /// Makes (name, version) unresolvable; in-flight batches drain.
  void retire_model(const std::string& name, std::uint64_t version);
  engine::ModelRegistry& registry() { return *registry_; }
  const engine::ModelRegistry& registry() const { return *registry_; }

  // ----------------------------------------------- staged rollout
  /// First half of a rollout: installs `blob` as the next version of
  /// `name` WITHOUT bumping "@latest", and force-checkpoints so the
  /// staged bank is durable (and ships to replication followers) before
  /// any shadow traffic references it. Returns the staged version.
  std::uint64_t stage_model(const std::string& name, std::string blob);
  /// Second half: publishes a staged version (atomic "@latest" bump)
  /// and force-checkpoints so the promotion decision is durable and
  /// replicates. The rollout controller calls this on a passed budget.
  void promote_model(const std::string& name, std::uint64_t version);
  /// Rollback: drops a staged-but-never-published version and
  /// force-checkpoints the retraction. Throws CheckError if the version
  /// was already published (use retire_model).
  void discard_model(const std::string& name, std::uint64_t version);

  // ----------------------------------------------------- admission
  /// Submits `rows` quantized activation rows (rows x cols, row-major)
  /// against `model_ref` ("name", "name@latest", or "name@N"); the
  /// resolved handle is pinned for the request's lifetime. Blocks
  /// while the queue is full (backpressure); during drain/shutdown the
  /// returned future holds a ShutdownError instead of blocking.
  /// Throws CheckError on an unknown model or a shape mismatch.
  std::future<InferenceResult> submit(const std::string& model_ref,
                                      std::vector<std::uint8_t> codes,
                                      std::size_t rows = 1);
  /// Same, against an already-resolved (pre-pinned) handle — the
  /// hot-path form that skips the registry lookup.
  std::future<InferenceResult> submit(engine::ModelRef model,
                                      std::vector<std::uint8_t> codes,
                                      std::size_t rows = 1);
  /// Full-context form: priority class, SLO deadline, tenant identity,
  /// non-blocking admission and a completion hook. The network front
  /// end submits through here.
  std::future<InferenceResult> submit(engine::ModelRef model,
                                      std::vector<std::uint8_t> codes,
                                      std::size_t rows,
                                      SubmitExtras extras);

  /// Splits a pre-quantized matrix into per-request row slices and
  /// submits them all; the last request takes the remainder.
  std::vector<std::future<InferenceResult>> submit_batch(
      const std::string& model_ref,
      const maddness::QuantizedActivations& q,
      std::size_t rows_per_request);

  /// Re-submits journaled requests under their original ids (no new
  /// accept records — they are already in the journal), each resolved
  /// to the exact model version it pinned at admission. Deterministic
  /// decode makes the replayed outputs bit-identical to what the
  /// crashed run would have produced, even across a hot-swap boundary.
  /// A record whose version is no longer in the registry fails its
  /// future with CheckError.
  std::vector<std::future<InferenceResult>> replay(
      const std::vector<recovery::AcceptedRecord>& requests);

  /// Closes admission, drains every queued request, joins the workers
  /// and freezes the metrics clock. Requests stranded by dead shards
  /// fail with std::runtime_error. Idempotent.
  void shutdown();

  // ------------------------------------------------- promotion hooks
  /// Wires journal + checkpoint store into a running server that was
  /// built without them — the replication promotion path: a warm
  /// standby is restored recovery-less (its records are the leader's),
  /// then owns the follower's stores the moment it becomes the leader.
  /// Writes a checkpoint immediately so the new leader is durable from
  /// its first accepted request. Pointers are borrowed, as in
  /// RecoveryOptions.
  void attach_recovery(recovery::RequestJournal* journal,
                       recovery::CheckpointManager* checkpoints,
                       std::size_t checkpoint_every);
  /// Raises the admission id watermark to at least `min_next_id` (never
  /// lowers it) — a promoted follower must not reuse ids the old leader
  /// handed out.
  void ensure_id_watermark(std::uint64_t min_next_id);
  /// Installs (or clears) the leader-side replication endpoint on a
  /// running server; workers pick it up on their next batch.
  void set_replication(replication::ReplicationLog* repl);
  /// Records that this server was promoted from a follower (surfaced
  /// as ssma_repl_role 2 plus apply counters in the exposition).
  void note_promotion(std::uint64_t applied_records, double apply_rate_hz);

  /// Prunes the journal prefix that is both fully acknowledged and —
  /// when replication is wired — replicated to the slowest handshaken
  /// follower, so long-running leaders stop growing disk unboundedly.
  /// No-op (returns 0) without a journal + checkpoint store (the
  /// checkpoint carries the counters the pruned records backed).
  /// Returns the number of records pruned.
  std::uint64_t compact_journal();

  /// Installs (or clears) the worker pool's post-ack batch observer —
  /// the rollout subsystem's traffic tap. See WorkerPool::set_observer.
  void set_batch_observer(BatchObserver* observer);
  /// Forwards a shadow-comparison batch into the metrics sink (see
  /// Metrics::record_shadow).
  void record_shadow(const std::string& model, std::size_t rows,
                     std::size_t drift_rows, std::int64_t max_abs_drift,
                     double live_ns, double shadow_ns) {
    metrics_.record_shadow(model, rows, drift_rows, max_abs_drift,
                           live_ns, shadow_ns);
  }

  MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  /// Attribute a refusal decided upstream of submit() (e.g. the network
  /// admission controller) to this server's reject counters, so one
  /// exposition covers the whole front door.
  void record_reject(RejectReason reason, std::size_t n = 1) {
    metrics_.record_reject(reason, n);
  }
  /// Prometheus text exposition: the metrics sink's counters and
  /// histograms plus live gauges (queue depth/capacity, workers,
  /// respawns, tracing state) sampled at call time. Serve this from a
  /// /metrics endpoint or dump it periodically.
  std::string render_prometheus() const;
  std::size_t queue_depth() const { return queue_->size(); }
  std::size_t queue_capacity() const { return queue_->capacity(); }
  /// Shard respawns performed by the supervisor so far.
  int respawn_count() const { return pool_->respawn_count(); }

  /// Pool-aggregate PPA (merge of per-shard reports, idle shards
  /// contributing silicon only). Only meaningful when the engine
  /// backend collects PPA (kSimulate). Requires shutdown() first.
  core::PpaReport aggregate_report() const;
  const std::vector<std::size_t>& shard_tokens() const;

 private:
  std::future<InferenceResult> submit_with_id(
      std::uint64_t id, engine::ModelRef model,
      std::vector<std::uint8_t> codes, std::size_t rows,
      bool journal_accept, SubmitExtras extras);
  /// Writes a checkpoint when `accepted` hits the cadence (or `force`).
  void maybe_checkpoint(std::uint64_t accepted, bool force);

  std::shared_ptr<engine::ModelRegistry> registry_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<bool> draining_{false};
  std::unique_ptr<RequestQueue> queue_;
  Metrics metrics_;
  std::unique_ptr<WorkerPool> pool_;
  RecoveryOptions recovery_;
  bool shut_down_ = false;
  /// Set once by note_promotion(); read by render_prometheus.
  struct PromotionInfo {
    bool promoted = false;
    std::uint64_t applied = 0;
    double apply_rate_hz = 0.0;
  };
  PromotionInfo promotion_;
};

}  // namespace ssma::serve
