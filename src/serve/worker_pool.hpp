// Sharded worker pool over the Engine API: N threads, each owning a
// private engine::ExecutionEngine (created from the pool's
// EngineOptions), draining token batches from the request queue and
// fulfilling the requests' futures. Every request carries a pinned
// ModelRef, so a worker computes each batch on exactly the bank the
// request resolved at admission — results are bit-exact and
// deterministic per request regardless of which shard serves it, and a
// version hot-swap never retroactively changes an in-flight batch.
//
// Fault tolerance (opt-in via WorkerPoolOptions::supervise): each shard
// parks its current batch in a per-shard in-flight slot before
// executing it. A supervisor thread watches for shards that die at an
// injected (or real) fault, joins the dead thread, pushes its
// in-flight requests back to the head of the queue, and respawns the
// shard with a fresh engine. Requeued requests keep their pinned model
// handles, so crash recovery is invisible to clients beyond latency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/ppa_report.hpp"
#include "engine/execution_engine.hpp"
#include "serve/batcher.hpp"
#include "serve/metrics.hpp"
#include "serve/request_queue.hpp"

namespace ssma::serve {

namespace recovery {
class FaultInjector;
class RequestJournal;
}  // namespace recovery

namespace replication {
class ReplicationLog;
}  // namespace replication

/// Post-ack tap on the worker hot path. `on_batch` runs on the shard
/// thread after the batch's futures are fulfilled, with the stitched
/// activation codes and the output accumulators still alive — an
/// implementation MUST NOT block or allocate (the rollout sampler uses
/// try-lock + preallocated buffers) or it taxes serving latency.
class BatchObserver {
 public:
  virtual ~BatchObserver() = default;
  /// `q` is the batch's stitched activation matrix at the live model's
  /// scale, `out` the rows x nout int16 outputs, `service_ns` the
  /// execute-through-ack wall time for the whole batch.
  virtual void on_batch(const engine::ModelHandle& model,
                        const maddness::QuantizedActivations& q,
                        const std::vector<std::int16_t>& out,
                        double service_ns) = 0;
};

struct WorkerPoolOptions {
  int num_workers = 4;
  /// Backend + macro shape + pacing for every shard's private engine.
  engine::EngineOptions engine;
  BatcherOptions batcher;

  // --- fault tolerance (none owned) ---
  recovery::FaultInjector* fault = nullptr;
  /// Ack records (request id + output CRC) are appended here.
  recovery::RequestJournal* journal = nullptr;
  /// When set, the ack stage first waits for the batch's journal
  /// records to replicate past the configured watermark (sync/window
  /// acked-write semantics).
  replication::ReplicationLog* replication = nullptr;
  /// Spawn the supervisor thread: detect dead shards, requeue their
  /// in-flight batch, respawn. Without it a crashed shard's in-flight
  /// futures fail at join().
  bool supervise = false;
  /// Per-shard respawn budget before the shard is declared dead for
  /// good (its in-flight futures then fail instead of requeueing).
  int max_respawns_per_shard = 3;
};

class WorkerPool {
 public:
  WorkerPool(RequestQueue& queue, Metrics& metrics,
             const WorkerPoolOptions& opts);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Spawns the worker threads — and the supervisor, when enabled
  /// (idempotent-hostile: call once).
  void start();
  /// Waits for all workers to drain the (closed) queue and exit, then
  /// fails any futures still parked in dead shards' in-flight slots.
  void join();

  int num_workers() const { return opts_.num_workers; }
  const WorkerPoolOptions& options() const { return opts_; }

  /// Swap the ack journal on a running pool (promotion attaches the
  /// follower's journal while workers serve). Workers load it per
  /// record, so the switch takes effect on the next ack.
  void set_journal(recovery::RequestJournal* journal) {
    journal_.store(journal, std::memory_order_release);
  }
  /// Same, for the leader-side replication ack gate.
  void set_replication(replication::ReplicationLog* repl) {
    replication_.store(repl, std::memory_order_release);
  }
  /// Attach (or detach, with nullptr) the post-ack batch tap. Workers
  /// load it per batch, so attachment takes effect on the next batch.
  void set_observer(BatchObserver* observer) {
    observer_.store(observer, std::memory_order_release);
  }
  /// Total shard respawns performed by the supervisor.
  int respawn_count() const {
    return respawns_total_.load(std::memory_order_relaxed);
  }

  /// Pool-aggregate PPA report. Only meaningful when the engine backend
  /// collects PPA (kSimulate — kernel/paced engines report
  /// default-empty). Valid after join().
  core::PpaReport aggregate_report() const;
  /// Per-shard reports, index == worker id. Valid after join().
  const std::vector<core::PpaReport>& shard_reports() const {
    return shard_reports_;
  }
  /// Tokens served per shard (load-balance visibility). Valid after join().
  const std::vector<std::size_t>& shard_tokens() const {
    return shard_tokens_;
  }

 private:
  enum class ShardStatus { kNotStarted, kRunning, kCrashed, kExited, kDead };

  /// Per-shard supervision state. `status` and `thread` are guarded by
  /// sup_mu_; `in_flight` is owned by the shard thread while running
  /// and only touched by the supervisor / join() after that thread has
  /// been joined (the join provides the happens-before edge).
  struct ShardSlot {
    std::thread thread;
    ShardStatus status = ShardStatus::kNotStarted;
    std::vector<InferenceRequest> in_flight;
    int respawns = 0;
  };

  void worker_main(int worker_id);
  void supervisor_main();
  void spawn_worker(int worker_id);
  /// Marks this shard crashed and wakes the supervisor. Called by the
  /// shard thread itself on a fatal injected fault.
  void report_crash(int worker_id);
  void report_exit(int worker_id);
  /// Fails every promise in `reqs` with a runtime_error.
  static void fail_requests(std::vector<InferenceRequest>& reqs,
                            const std::string& why);

  RequestQueue& queue_;
  Metrics& metrics_;
  WorkerPoolOptions opts_;
  /// Live views of opts_.journal / opts_.replication, swappable while
  /// workers run (see set_journal / set_replication).
  std::atomic<recovery::RequestJournal*> journal_{nullptr};
  std::atomic<replication::ReplicationLog*> replication_{nullptr};
  std::atomic<BatchObserver*> observer_{nullptr};
  std::vector<std::unique_ptr<ShardSlot>> slots_;
  std::thread supervisor_;
  std::mutex sup_mu_;
  std::condition_variable sup_cv_;
  std::atomic<int> respawns_total_{0};
  std::vector<core::PpaReport> shard_reports_;
  std::vector<std::size_t> shard_tokens_;
  bool started_ = false;
  bool joined_ = false;
};

}  // namespace ssma::serve
