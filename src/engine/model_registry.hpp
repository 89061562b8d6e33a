// Versioned multi-model registry — the deployment-facing half of the
// Engine API.
//
// A ModelHandle is one immutable deployable unit: a (name, version)
// pair plus the trained operator(s) behind it — a single Amm for
// matmul-shaped models, or a shape-chained stage list for multi-stage
// (CNN-feature / MLP-head) pipelines. Handles are reference-counted and
// never mutated after construction, so a worker that pins one for the
// duration of a batch keeps serving the exact bank it resolved even if
// a newer version is registered (or the old one retired) mid-batch —
// that shared_ptr pin is the whole zero-downtime hot-swap mechanism.
//
// The ModelRegistry maps (name, version) -> ModelHandle with an atomic
// `latest` pointer per name:
//
//   reg.register_model("embed", amm);          // -> version 1
//   auto h  = reg.resolve("embed@latest");     // pins v1
//   reg.register_model("embed", retrained);    // -> version 2 (atomic bump)
//   auto h2 = reg.resolve("embed");            // pins v2; h still serves v1
//   reg.retire("embed", 1);                    // v1 unreachable; h unaffected
//
// The registry serializes into the serving checkpoint (v2 record), so a
// restarted server restores every registered version and journal replay
// stays bit-exact across a hot-swap boundary.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/execution_plan.hpp"
#include "maddness/amm.hpp"

namespace ssma::engine {

class ModelHandle;

/// How code refers to a pinned model: shared ownership of an immutable
/// handle. Copy freely; the bank lives while any pin does.
using ModelRef = std::shared_ptr<const ModelHandle>;

class ModelHandle {
 public:
  /// Deserializes a handle from its canonical blob: a single SSMAAMM2
  /// Amm frame, or an SSMAPIP1 multi-stage frame. Throws CheckError on
  /// a torn or foreign blob, or on a name outside [A-Za-z0-9._-]
  /// (names land verbatim in refs, metrics tables and JSON artifacts).
  static ModelRef from_blob(std::string name, std::uint64_t version,
                            std::string blob);
  /// Wraps one trained operator (re-serialized into the handle's blob).
  static ModelRef from_amm(std::string name, std::uint64_t version,
                           const maddness::Amm& amm);
  /// Builds a multi-stage pipeline handle. Stage shapes must chain:
  /// stage[i+1].cfg().total_dims() == stage[i].lut().nout.
  static ModelRef from_stages(std::string name, std::uint64_t version,
                              const std::vector<const maddness::Amm*>& stages);

  const std::string& name() const { return name_; }
  std::uint64_t version() const { return version_; }
  /// Canonical serialized form — what checkpoints persist and what
  /// from_blob() round-trips.
  const std::string& blob() const { return blob_; }

  std::size_t num_stages() const { return stages_.size(); }
  bool is_pipeline() const { return stages_.size() > 1; }
  const maddness::Amm& stage(std::size_t i) const { return stages_[i]; }
  /// The single operator of a matmul-shaped model (stage 0 otherwise).
  const maddness::Amm& amm() const { return stages_.front(); }

  /// The execution descriptor compiled at construction: stage chain +
  /// fused-epilogue constants. Engines walk this instead of the raw
  /// stage list (see engine/execution_plan.hpp).
  const ExecutionPlan& plan() const { return plan_; }

  /// Request geometry: activation columns consumed per row (stage 0)
  /// and int16 outputs produced per row (final stage).
  std::size_t cols() const;
  std::size_t nout() const;

  /// "name@version" — the exact ref string that resolves back to this
  /// handle (journal records and metrics keys use it).
  std::string ref() const;

 private:
  ModelHandle() = default;
  // The plan points into stages_: handles must never be copied or
  // moved out of their shared_ptr.
  ModelHandle(const ModelHandle&) = delete;
  ModelHandle& operator=(const ModelHandle&) = delete;

  std::string name_;
  std::uint64_t version_ = 0;
  std::vector<maddness::Amm> stages_;
  ExecutionPlan plan_;
  std::string blob_;
};

/// Serializes a stage list into the SSMAPIP1 multi-stage blob format
/// (each stage an Amm frame inside an outer CRC frame).
std::string pipeline_blob(const std::vector<const maddness::Amm*>& stages);

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers `amm` (or a pre-serialized blob, or a stage pipeline) as
  /// the next version of `name` and atomically bumps `latest`. Returns
  /// the new version. Thread-safe; resolvers never observe a
  /// half-registered version. With `publish = false` the version is
  /// installed (explicitly resolvable, included in save()) but `latest`
  /// is NOT bumped until publish() — the server uses this to make a
  /// version durable in a checkpoint before "@latest" traffic can pin
  /// it.
  std::uint64_t register_model(const std::string& name,
                               const maddness::Amm& amm);
  std::uint64_t register_model(const std::string& name, std::string blob,
                               bool publish = true);
  std::uint64_t register_pipeline(
      const std::string& name,
      const std::vector<const maddness::Amm*>& stages);

  /// Advances `latest` to `version` (the second half of a
  /// register_model(..., publish=false)). Throws CheckError when the
  /// version was never installed OR does not advance latest — a double
  /// publish of the same version fails loud rather than silently
  /// no-opping.
  void publish(const std::string& name, std::uint64_t version);

  /// Drops a staged-but-never-published version — the rollback path of
  /// a rollout. Throws CheckError when the version is unknown or has
  /// been published (published versions go through retire()). Pinned
  /// handles are unaffected.
  void discard_staged(const std::string& name, std::uint64_t version);

  /// Installs an exact (name, version) handle — the checkpoint-restore
  /// path. `latest` becomes the highest installed version.
  void install(ModelRef handle);

  /// Resolves "name", "name@latest", or "name@N". Throws CheckError on
  /// an unknown name/version or a malformed ref.
  ModelRef resolve(const std::string& ref) const;
  /// version 0 = latest.
  ModelRef resolve(const std::string& name, std::uint64_t version) const;
  /// Like resolve(name, version) but returns nullptr instead of
  /// throwing.
  ModelRef try_resolve(const std::string& name,
                       std::uint64_t version) const;

  /// Makes a published (name, version) unresolvable. Pinned handles are
  /// unaffected — in-flight batches drain on the retired bank. Retiring
  /// `latest` moves `latest` to the highest remaining version (a name
  /// with no versions left is dropped entirely). Throws CheckError for
  /// a never-published staged version — use discard_staged().
  void retire(const std::string& name, std::uint64_t version);

  std::vector<std::string> names() const;
  std::vector<std::uint64_t> versions(const std::string& name) const;
  /// 0 when the name is unknown.
  std::uint64_t latest_version(const std::string& name) const;
  std::size_t num_models() const;

  /// Registry section of the v2 checkpoint record: every registered
  /// (name, version, blob) plus the latest pointers, in deterministic
  /// (sorted) order so identical registries encode byte-identically.
  void save(std::ostream& os) const;
  /// Installs every model from a save() stream into this registry.
  void load(std::istream& is);
  /// Applies a save() stream to a registry that may already hold some
  /// of it: versions already installed are skipped (no re-decode, live
  /// pins untouched), missing ones installed, and the stream's latest
  /// pointers honored exactly — including a latest left behind a newer
  /// staged-but-unpublished version, so a replication follower applying
  /// successive leader checkpoints resolves "@latest" exactly as the
  /// leader's own restore would.
  void merge(std::istream& is);

 private:
  struct Entry {
    std::map<std::uint64_t, ModelRef> versions;
    std::uint64_t latest = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> models_;
};

}  // namespace ssma::engine
