// Tests for the Engine API: ModelHandle blobs (single-stage and
// pipeline), the versioned ModelRegistry (atomic bump, ref resolution,
// retire, checkpoint serialization), the three ExecutionEngine backends
// (bit-exact vs the reference decode, PPA collection, pacing), the
// multi-stage pipeline semantics, and the MaddnessNetwork layer export.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "engine/execution_engine.hpp"
#include "engine/model_registry.hpp"
#include "engine/pipeline.hpp"
#include "nn/dataset.hpp"
#include "nn/maddness_network.hpp"
#include "nn/trainer.hpp"
#include "serve_test_util.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ssma::engine {
namespace {

using serve::ServeFixture;

// --------------------------------------------------------- ModelHandle

TEST(ModelHandle, SingleStageBlobRoundTrip) {
  const ServeFixture f = ServeFixture::make();
  const ModelRef h = ModelHandle::from_amm("embed", 3, f.amm);
  EXPECT_EQ(h->name(), "embed");
  EXPECT_EQ(h->version(), 3u);
  EXPECT_EQ(h->ref(), "embed@3");
  EXPECT_FALSE(h->is_pipeline());
  EXPECT_EQ(h->cols(), f.pool.cols);
  EXPECT_EQ(h->nout(),
            static_cast<std::size_t>(f.amm.lut().nout));

  // The canonical blob reconstructs an identical bank.
  const ModelRef again = ModelHandle::from_blob("embed", 3, h->blob());
  EXPECT_EQ(again->amm().apply_int16(f.pool), f.amm.apply_int16(f.pool));
}

TEST(ModelHandle, RejectsForeignBlobsAndBadNames) {
  const ServeFixture f = ServeFixture::make();
  EXPECT_THROW(ModelHandle::from_blob("m", 1, "NOTAMODELATALL"),
               CheckError);
  EXPECT_THROW(ModelHandle::from_amm("", 1, f.amm), CheckError);
  EXPECT_THROW(ModelHandle::from_amm("bad@name", 1, f.amm), CheckError);
  EXPECT_THROW(ModelHandle::from_amm("m", 0, f.amm), CheckError);
}

// ------------------------------------------------------- ModelRegistry

TEST(ModelRegistry, RegisterResolveAndAtomicVersionBump) {
  const ServeFixture a = ServeFixture::make(4, 8, 64, 7);
  const ServeFixture b = ServeFixture::make(4, 8, 64, 99);
  ModelRegistry reg;
  EXPECT_EQ(reg.register_model("m", a.amm), 1u);

  const ModelRef v1 = reg.resolve("m@latest");
  EXPECT_EQ(v1->version(), 1u);

  EXPECT_EQ(reg.register_model("m", b.amm), 2u);
  // latest moved; the pinned v1 handle still serves the old bank.
  EXPECT_EQ(reg.resolve("m")->version(), 2u);
  EXPECT_EQ(reg.resolve("m@1").get(), v1.get());
  EXPECT_EQ(v1->amm().apply_int16(a.pool), a.amm.apply_int16(a.pool));
  EXPECT_EQ(reg.resolve("m@2")->amm().apply_int16(b.pool),
            b.amm.apply_int16(b.pool));

  EXPECT_EQ(reg.latest_version("m"), 2u);
  EXPECT_EQ(reg.versions("m"), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(reg.num_models(), 1u);

  EXPECT_THROW(reg.resolve("m@3"), CheckError);
  EXPECT_THROW(reg.resolve("nope"), CheckError);
  EXPECT_THROW(reg.resolve("m@abc"), CheckError);
  EXPECT_THROW(reg.resolve("m@"), CheckError);
  // "@0" is a bad ref, not a latest alias (0 is only the internal
  // sentinel of the (name, version) overload).
  EXPECT_THROW(reg.resolve("m@0"), CheckError);
  EXPECT_EQ(reg.try_resolve("m", 7), nullptr);
}

TEST(ModelRegistry, UnpublishedVersionStaysOffLatestUntilPublish) {
  // The server's durability protocol: stage (resolvable only by
  // explicit version, included in save()) -> checkpoint -> publish.
  const ServeFixture f = ServeFixture::make();
  ModelRegistry reg;
  reg.register_model("m", f.amm);
  EXPECT_EQ(reg.register_model("m", f.amm.save_string(),
                               /*publish=*/false),
            2u);

  EXPECT_EQ(reg.resolve("m@latest")->version(), 1u);  // not bumped
  EXPECT_EQ(reg.resolve("m@2")->version(), 2u);       // explicit works

  // save() already carries the staged version — that is the whole
  // point: durable before "@latest" traffic can pin it.
  std::ostringstream os;
  reg.save(os);
  ModelRegistry back;
  std::istringstream is(os.str());
  back.load(is);
  EXPECT_EQ(back.versions("m"), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(back.latest_version("m"), 1u);

  reg.publish("m", 2);
  EXPECT_EQ(reg.resolve("m")->version(), 2u);
  EXPECT_THROW(reg.publish("m", 9), CheckError);
  EXPECT_THROW(reg.publish("nope", 1), CheckError);

  // A brand-new name whose only version is staged: restore must NOT
  // commit the uncommitted swap — "@latest" stays unresolvable while
  // the staged version remains explicitly resolvable (journal replay).
  ModelRegistry staged;
  staged.register_model("fresh", f.amm.save_string(),
                        /*publish=*/false);
  std::ostringstream sos;
  staged.save(sos);
  ModelRegistry sback;
  std::istringstream sis(sos.str());
  sback.load(sis);
  EXPECT_EQ(sback.latest_version("fresh"), 0u);
  EXPECT_EQ(sback.try_resolve("fresh", 0), nullptr);
  ASSERT_NE(sback.try_resolve("fresh", 1), nullptr);
}

TEST(ModelRegistry, RetireMovesLatestAndDropsEmptyNames) {
  const ServeFixture f = ServeFixture::make();
  ModelRegistry reg;
  reg.register_model("m", f.amm);
  reg.register_model("m", f.amm);
  const ModelRef pinned = reg.resolve("m@2");

  reg.retire("m", 2);
  EXPECT_EQ(reg.latest_version("m"), 1u);
  EXPECT_EQ(reg.try_resolve("m", 2), nullptr);
  // The pinned handle outlives its registry entry (in-flight batches
  // drain on retired banks).
  EXPECT_EQ(pinned->amm().apply_int16(f.pool), f.amm.apply_int16(f.pool));

  reg.retire("m", 1);
  EXPECT_EQ(reg.num_models(), 0u);
  EXPECT_THROW(reg.retire("m", 1), CheckError);

  // A re-register after full retirement starts versioning fresh.
  EXPECT_EQ(reg.register_model("m", f.amm), 1u);
}

TEST(ModelRegistry, SaveLoadRoundTripIsDeterministic) {
  const ServeFixture a = ServeFixture::make(4, 8, 64, 7);
  const ServeFixture b = ServeFixture::make(8, 16, 64, 8);
  ModelRegistry reg;
  reg.register_model("alpha", a.amm);
  reg.register_model("alpha", a.amm);
  reg.register_model("beta", b.amm);

  std::ostringstream os1;
  reg.save(os1);

  ModelRegistry back;
  std::istringstream is(os1.str());
  back.load(is);
  EXPECT_EQ(back.names(), reg.names());
  EXPECT_EQ(back.versions("alpha"), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(back.latest_version("alpha"), 2u);
  EXPECT_EQ(back.resolve("beta@1")->amm().apply_int16(b.pool),
            b.amm.apply_int16(b.pool));

  // Identical registries encode byte-identically (checkpoint golden
  // format relies on this).
  std::ostringstream os2;
  back.save(os2);
  EXPECT_EQ(os1.str(), os2.str());
}

// ----------------------------------------------------- engine backends

TEST(ExecutionEngine, AllBackendsBitExactVsReference) {
  const ServeFixture f = ServeFixture::make();
  const ModelRef model = ModelHandle::from_amm("m", 1, f.amm);
  const std::vector<std::int16_t> want = f.amm.apply_int16(f.pool);

  for (const Backend backend :
       {Backend::kKernel, Backend::kSimulate, Backend::kDevicePaced}) {
    EngineOptions opts;
    opts.backend = backend;
    opts.accel.ns = 4;
    opts.accel.ndec = 8;
    opts.device_ns_per_token = 10.0;  // keep the paced run fast
    const auto eng = make_engine(opts);
    EXPECT_STREQ(eng->info().name, to_string(backend));
    EXPECT_EQ(eng->info().backend, backend);
    std::vector<std::int16_t> out;
    eng->run_batch(*model, f.pool, out);
    EXPECT_EQ(out, want) << to_string(backend)
                         << " diverged from Amm::apply_int16";
  }
}

TEST(ExecutionEngine, SimulateCollectsPpaAndIdleReportsSilicon) {
  const ServeFixture f = ServeFixture::make();
  const ModelRef model = ModelHandle::from_amm("m", 1, f.amm);
  EngineOptions opts;
  opts.backend = Backend::kSimulate;
  opts.accel.ns = 4;
  opts.accel.ndec = 8;

  const auto idle = make_engine(opts);
  EXPECT_TRUE(idle->info().collects_ppa);
  const core::PpaReport silicon = idle->ppa_report();
  EXPECT_GT(silicon.core_mm2, 0.0);          // the macro exists...
  EXPECT_DOUBLE_EQ(silicon.throughput_tops, 0.0);  // ...but ran nothing

  const auto busy = make_engine(opts);
  std::vector<std::int16_t> out;
  busy->run_batch(*model, f.pool, out);
  const core::PpaReport r = busy->ppa_report();
  EXPECT_GT(r.total_ops, 0);
  EXPECT_GT(r.energy_per_op_fj, 0.0);

  // Kernel engines stay PPA-silent.
  EngineOptions kopts;
  const auto kernel = make_engine(kopts);
  EXPECT_FALSE(kernel->info().collects_ppa);
  kernel->run_batch(*model, f.pool, out);
  EXPECT_EQ(kernel->ppa_report().total_ops, 0);
}

// ------------------------------------------------- multi-stage models

/// Two shape-chained stages: stage 0 (4 codebooks -> 36 outs) feeds
/// stage 1 (36 dims == 4 codebooks x 9 -> nout outs), trained with
/// error-aware chaining.
struct PipelineFixture {
  maddness::Amm stage0;
  maddness::Amm stage1;
  maddness::QuantizedActivations pool;  ///< stage-0 inputs

  static PipelineFixture make(std::uint64_t seed = 21) {
    Rng rng(seed);
    const std::size_t d0 = 4 * 9;
    Matrix calib(384, d0);
    for (std::size_t i = 0; i < calib.size(); ++i)
      calib.data()[i] = static_cast<float>(rng.next_double(0, 200));
    Matrix w0(d0, 36);
    for (std::size_t i = 0; i < w0.size(); ++i)
      w0.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
    Matrix w1(36, 12);
    for (std::size_t i = 0; i < w1.size(); ++i)
      w1.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));

    maddness::Config cfg;
    cfg.ncodebooks = 4;
    PipelineFixture f;
    Matrix mid;
    f.stage0 = train_chained_stage(cfg, calib, w0, &mid);
    f.stage1 = train_chained_stage(cfg, mid, w1, nullptr);

    Matrix fresh(96, d0);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      fresh.data()[i] = static_cast<float>(rng.next_double(0, 200));
    f.pool = maddness::quantize_activations(fresh,
                                            f.stage0.activation_scale());
    return f;
  }
};

TEST(Pipeline, HandleValidatesStageChain) {
  const PipelineFixture f = PipelineFixture::make();
  const ModelRef ok =
      ModelHandle::from_stages("mlp", 1, {&f.stage0, &f.stage1});
  EXPECT_TRUE(ok->is_pipeline());
  EXPECT_EQ(ok->num_stages(), 2u);
  EXPECT_EQ(ok->cols(), f.pool.cols);
  EXPECT_EQ(ok->nout(), 12u);
  // stage1 -> stage0 does not chain (12 outs vs 36 dims).
  EXPECT_THROW(
      ModelHandle::from_stages("bad", 1, {&f.stage1, &f.stage0}),
      CheckError);
}

TEST(Pipeline, AllBackendsMatchReferenceApplyBitExact) {
  const PipelineFixture f = PipelineFixture::make();
  const ModelRef model =
      ModelHandle::from_stages("mlp", 1, {&f.stage0, &f.stage1});
  const std::vector<std::int16_t> want =
      pipeline_reference_apply(*model, f.pool);
  ASSERT_EQ(want.size(), f.pool.rows * 12);

  for (const Backend backend :
       {Backend::kKernel, Backend::kSimulate, Backend::kDevicePaced}) {
    EngineOptions opts;
    opts.backend = backend;
    opts.accel.ns = 4;
    opts.accel.ndec = 8;
    opts.device_ns_per_token = 10.0;
    const auto eng = make_engine(opts);
    std::vector<std::int16_t> out;
    eng->run_batch(*model, f.pool, out);
    EXPECT_EQ(out, want) << "pipeline on " << to_string(backend)
                         << " diverged from the reference";
  }
}

TEST(Pipeline, BlobRoundTripPreservesEveryStage) {
  const PipelineFixture f = PipelineFixture::make();
  const ModelRef model =
      ModelHandle::from_stages("mlp", 1, {&f.stage0, &f.stage1});
  const ModelRef back = ModelHandle::from_blob("mlp", 2, model->blob());
  EXPECT_EQ(back->num_stages(), 2u);
  EXPECT_EQ(pipeline_reference_apply(*back, f.pool),
            pipeline_reference_apply(*model, f.pool));

  // Registry round trip carries pipelines too.
  ModelRegistry reg;
  EXPECT_EQ(reg.register_pipeline("mlp", {&f.stage0, &f.stage1}), 1u);
  std::ostringstream os;
  reg.save(os);
  ModelRegistry loaded;
  std::istringstream is(os.str());
  loaded.load(is);
  EXPECT_EQ(pipeline_reference_apply(*loaded.resolve("mlp"), f.pool),
            pipeline_reference_apply(*model, f.pool));
}

TEST(Pipeline, StageHandoffRejectsShapeMismatch) {
  const PipelineFixture f = PipelineFixture::make();
  const std::vector<std::int16_t> acc(f.pool.rows * 12, 1);
  EXPECT_THROW(stage_handoff(f.stage1, f.stage1, acc, f.pool.rows),
               CheckError);
}

TEST(Pipeline, FusedEngineOptionMatchesUnfusedBitExact) {
  // EngineOptions::fused_pipeline only chooses whether interior stage
  // boundaries run in-register or materialize — never the bits.
  const PipelineFixture f = PipelineFixture::make();
  const ModelRef model =
      ModelHandle::from_stages("mlp", 1, {&f.stage0, &f.stage1});
  const std::vector<std::int16_t> want =
      pipeline_reference_apply(*model, f.pool);
  for (const bool fused : {true, false}) {
    EngineOptions opts;
    opts.backend = Backend::kKernel;
    opts.fused_pipeline = fused;
    const auto eng = make_engine(opts);
    std::vector<std::int16_t> out;
    eng->run_batch(*model, f.pool, out);
    EXPECT_EQ(out, want) << (fused ? "fused" : "unfused")
                         << " kernel walk diverged";
  }
}

TEST(Pipeline, RegisterSegmentsCollapsesChainsAndSplitsAtBreaks) {
  const PipelineFixture f = PipelineFixture::make();
  // stage0 (36 -> 36) chains into stage1 (36 -> 12); a second stage0
  // cannot consume 12 outputs, so the run breaks there.
  ModelRegistry reg;
  const std::vector<std::string> names = register_segments(
      reg, "mlp", {&f.stage0, &f.stage1, &f.stage0});
  EXPECT_EQ(names,
            (std::vector<std::string>{"mlp.seg0", "mlp.seg1"}));

  const ModelRef seg0 = reg.resolve("mlp.seg0");
  EXPECT_TRUE(seg0->is_pipeline());
  EXPECT_EQ(seg0->num_stages(), 2u);
  const ModelRef seg1 = reg.resolve("mlp.seg1");
  EXPECT_FALSE(seg1->is_pipeline());

  // The collapsed segment serves the chained pair bit-exactly through
  // its fused plan.
  const auto eng = make_engine(EngineOptions{});
  std::vector<std::int16_t> out;
  eng->run_batch(*seg0, f.pool, out);
  EXPECT_EQ(out, pipeline_reference_apply(*seg0, f.pool));
}

// ------------------------------------------- MaddnessNetwork export

TEST(Pipeline, RegisterNetworkServesConvPatchesBitExact) {
  Rng rng(1);
  nn::Dataset data = nn::make_synthetic_dataset(rng, 60, 8, 8);
  nn::Network net;
  net.emplace<nn::Conv2d>(3, 8, 3, 1, 1, rng);
  net.emplace<nn::BatchNorm2d>(8);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Conv2d>(8, 8, 3, 1, 1, rng);
  net.emplace<nn::BatchNorm2d>(8);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Linear>(8 * 8 * 8, 10, rng);
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 20;
  Rng trng(55);
  nn::train(net, data, tc, trng);

  std::vector<std::size_t> idx{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const nn::Tensor calib = nn::take_batch(data, idx).first;
  const nn::MaddnessNetwork mnet(net, calib);
  ASSERT_EQ(mnet.num_substituted_convs(), 2u);

  // 3x3 conv shapes never chain (conv1 consumes 9*8 patch columns,
  // conv0 produced 8 channels), so each layer becomes its own
  // single-stage segment.
  ModelRegistry reg;
  const std::vector<std::string> names = register_network(reg, "cnn", mnet);
  EXPECT_EQ(names, (std::vector<std::string>{"cnn.seg0", "cnn.seg1"}));

  // Each registered layer serves its conv's im2col patch matmul
  // bit-exactly: the served CNN-feature workload.
  for (std::size_t i = 0; i < names.size(); ++i) {
    const ModelRef layer = reg.resolve(names[i]);
    EXPECT_FALSE(layer->is_pipeline());
    const maddness::Amm& amm = mnet.substituted_conv(i).amm();
    EXPECT_EQ(layer->cols(),
              static_cast<std::size_t>(amm.cfg().total_dims()));
    // A deterministic synthetic patch batch through both paths.
    maddness::QuantizedActivations patches;
    patches.rows = 24;
    patches.cols = layer->cols();
    patches.scale = amm.activation_scale();
    patches.codes.resize(patches.rows * patches.cols);
    for (std::size_t k = 0; k < patches.codes.size(); ++k)
      patches.codes[k] = static_cast<std::uint8_t>((k * 31 + 7) & 0xFF);
    const auto eng = make_engine(EngineOptions{});
    std::vector<std::int16_t> out;
    eng->run_batch(*layer, patches, out);
    EXPECT_EQ(out, amm.apply_int16(patches))
        << names[i] << " diverged from the network's operator";
  }
}

}  // namespace
}  // namespace ssma::engine
