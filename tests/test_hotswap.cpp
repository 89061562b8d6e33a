// Hot-swap stress: a version bump under sustained multi-client load
// must lose or duplicate nothing, keep every response bit-exact on the
// bank its request pinned at admission (old in-flight batches on the
// old bank, post-swap batches on the new), keep explicit version refs
// serving retired-from-latest banks, and split the metrics per model.
// Seeded like the other serve suites: reproduce with SSMA_TEST_SEED.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "engine/model_registry.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "util/check.hpp"

namespace ssma::serve {
namespace {

TEST(HotSwap, VersionBumpUnderLoadLosesNothingAndStaysBitExact) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture old_fx = ServeFixture::make(4, 8, 256, 7);
  const ServeFixture new_fx = ServeFixture::make(4, 8, 256, 99);

  const auto expected_on = [&](const maddness::Amm& amm,
                               std::size_t first_row) {
    maddness::QuantizedActivations q;
    q.rows = 1;
    q.cols = old_fx.pool.cols;
    q.scale = old_fx.pool.scale;
    q.codes.assign(old_fx.pool.row(first_row),
                   old_fx.pool.row(first_row) + old_fx.pool.cols);
    return amm.apply_int16(q);
  };

  ServerOptions opts;
  opts.num_workers = 4;
  opts.queue_capacity = 128;
  opts.batcher.max_batch_tokens = 8;
  InferenceServer server(opts);
  ASSERT_EQ(server.register_model("alpha", old_fx.amm), 1u);

  constexpr int kClients = 4;
  constexpr std::size_t kPerClient = 150;
  constexpr std::size_t kAfterSwap = 10;
  struct Served {
    InferenceResult res;
    std::size_t row;
  };
  std::vector<std::vector<Served>> served(kClients);
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> swapped{false};
  // A failed swap ends the clients' after-swap loop instead of hanging
  // it; the swapper's EXPECT reports the failure.
  std::atomic<bool> swap_failed{false};

  // Closed-loop clients: each waits for its response before the next
  // submit, so the stream stays live across the whole swap window. A
  // client keeps going past kPerClient until it has submitted
  // kAfterSwap requests after seeing the swap, so the stream is still
  // live when the swapper thread runs, however fast requests complete.
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::size_t after_swap = 0;
      for (std::size_t k = 0;
           k < kPerClient || (after_swap < kAfterSwap && !swap_failed);
           ++k) {
        if (swapped.load(std::memory_order_acquire)) ++after_swap;
        const std::size_t row =
            (static_cast<std::size_t>(c) * kPerClient + k) %
            old_fx.pool.rows;
        // .get() throws on any lost request — zero-loss is asserted by
        // every iteration completing.
        served[static_cast<std::size_t>(c)].push_back(
            {server.submit("alpha@latest", old_fx.codes_for(row), 1)
                 .get(),
             row});
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Swap mid-traffic: wait until the stream is demonstrably live, then
  // bump the version while clients keep submitting.
  std::thread swapper([&] {
    while (completed.load(std::memory_order_relaxed) <
           kClients * kPerClient / 4)
      std::this_thread::yield();
    const std::uint64_t version =
        server.register_model("alpha", new_fx.amm);
    EXPECT_EQ(version, 2u);
    (version == 2u ? swapped : swap_failed)
        .store(true, std::memory_order_release);
  });
  for (std::thread& t : clients) t.join();
  swapper.join();
  ASSERT_TRUE(swapped.load());

  // Zero loss, zero duplication: every submitted request resolved
  // exactly once, each bit-exact on the bank version it reports.
  std::size_t served_v1 = 0, served_v2 = 0;
  for (std::vector<Served>& shard : served)
    for (Served& sv : shard) {
      const InferenceResult& res = sv.res;
      EXPECT_EQ(res.model, "alpha");
      ASSERT_TRUE(res.model_version == 1 || res.model_version == 2);
      const maddness::Amm& bank =
          res.model_version == 1 ? old_fx.amm : new_fx.amm;
      EXPECT_EQ(res.outputs, expected_on(bank, sv.row))
          << "request served on alpha@" << res.model_version
          << " diverged from that bank's reference";
      (res.model_version == 1 ? served_v1 : served_v2)++;
    }
  EXPECT_EQ(served_v1 + served_v2, completed.load());
  EXPECT_GE(completed.load(), kClients * kPerClient);
  // The swap fired mid-stream: both banks actually served traffic (each
  // request submitted after a client saw the swap resolved v2).
  EXPECT_GT(served_v1, 0u);
  EXPECT_GE(served_v2, kClients * kAfterSwap);

  server.shutdown();
  const MetricsSnapshot s = server.metrics();
  EXPECT_EQ(s.requests, completed.load());
  ASSERT_NE(s.for_model("alpha"), nullptr);
  EXPECT_EQ(s.for_model("alpha")->requests, completed.load());
}

TEST(HotSwap, ExplicitVersionRefsKeepServingAfterTheBump) {
  const ServeFixture old_fx = ServeFixture::make(4, 8, 64, 7);
  const ServeFixture new_fx = ServeFixture::make(4, 8, 64, 99);
  ServerOptions opts;
  opts.num_workers = 2;
  InferenceServer server(opts);
  server.register_model("alpha", old_fx.amm);
  server.register_model("alpha", new_fx.amm);

  const auto expect = [&](const maddness::Amm& amm, std::size_t row) {
    maddness::QuantizedActivations q;
    q.rows = 1;
    q.cols = old_fx.pool.cols;
    q.scale = old_fx.pool.scale;
    q.codes.assign(old_fx.pool.row(row),
                   old_fx.pool.row(row) + old_fx.pool.cols);
    return amm.apply_int16(q);
  };

  // Pinned-version traffic coexists with @latest traffic.
  auto f1 = server.submit("alpha@1", old_fx.codes_for(3), 1);
  auto f2 = server.submit("alpha@latest", old_fx.codes_for(3), 1);
  const InferenceResult r1 = f1.get();
  const InferenceResult r2 = f2.get();
  EXPECT_EQ(r1.model_version, 1u);
  EXPECT_EQ(r1.outputs, expect(old_fx.amm, 3));
  EXPECT_EQ(r2.model_version, 2u);
  EXPECT_EQ(r2.outputs, expect(new_fx.amm, 3));

  // Retiring the old version makes it unresolvable for NEW requests —
  // but a handle pinned before the retire keeps serving (drain
  // semantics).
  const engine::ModelRef pinned = server.registry().resolve("alpha@1");
  server.retire_model("alpha", 1);
  EXPECT_THROW(server.submit("alpha@1", old_fx.codes_for(0), 1),
               CheckError);
  auto f3 = server.submit(pinned, old_fx.codes_for(5), 1);
  EXPECT_EQ(f3.get().outputs, expect(old_fx.amm, 5));
  server.shutdown();
}

TEST(HotSwap, StagedVersionEdgeCasesFailLoud) {
  const ServeFixture fx = ServeFixture::make(4, 8, 32, 7);
  engine::ModelRegistry reg;
  reg.register_model("alpha", fx.amm);  // v1, published
  const std::uint64_t staged =
      reg.register_model("alpha", fx.amm.save_string(), /*publish=*/false);
  EXPECT_EQ(staged, 2u);
  EXPECT_EQ(reg.latest_version("alpha"), 1u);  // staged != latest
  // A staged version is explicitly resolvable...
  EXPECT_NE(reg.try_resolve("alpha", staged), nullptr);
  EXPECT_EQ(reg.resolve("alpha@latest")->version(), 1u);
  // ...but was never published, so it cannot be retired: the rollback
  // path is discard_staged().
  EXPECT_THROW(reg.retire("alpha", staged), CheckError);

  reg.publish("alpha", staged);
  EXPECT_EQ(reg.latest_version("alpha"), 2u);
  // Double publish fails loud instead of silently no-opping.
  EXPECT_THROW(reg.publish("alpha", staged), CheckError);
  // As does publishing backwards, or a version never installed.
  EXPECT_THROW(reg.publish("alpha", 1), CheckError);
  EXPECT_THROW(reg.publish("alpha", 9), CheckError);
  // A published version is not "staged" anymore: discard refuses it.
  EXPECT_THROW(reg.discard_staged("alpha", staged), CheckError);
  EXPECT_THROW(reg.discard_staged("alpha", 9), CheckError);

  // discard_staged drops the version for new resolvers; an existing pin
  // keeps serving (drain semantics, same as retire).
  const std::uint64_t staged2 =
      reg.register_model("alpha", fx.amm.save_string(), /*publish=*/false);
  const engine::ModelRef pin = reg.resolve("alpha", staged2);
  reg.discard_staged("alpha", staged2);
  EXPECT_EQ(reg.try_resolve("alpha", staged2), nullptr);
  EXPECT_EQ(pin->version(), staged2);
  EXPECT_EQ(reg.latest_version("alpha"), 2u);
}

TEST(HotSwap, LatestResolutionIsMonotonicAcrossRacingPublishes) {
  const ServeFixture fx = ServeFixture::make(4, 8, 32, 7);
  engine::ModelRegistry reg;
  reg.register_model("alpha", fx.amm);
  constexpr std::uint64_t kLast = 32;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> published{1};

  std::thread publisher([&] {
    for (std::uint64_t v = 2; v <= kLast; ++v) {
      EXPECT_EQ(reg.register_model("alpha", fx.amm.save_string(),
                                   /*publish=*/false),
                v);
      reg.publish("alpha", v);
      published.store(v, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  // "@latest" observed concurrently never moves backwards and never
  // resolves a staged-but-unpublished version: the publish watermark
  // read before each resolve is a floor on what it may return.
  std::uint64_t prev = 0;
  while (!done.load(std::memory_order_acquire)) {
    const std::uint64_t floor = published.load(std::memory_order_acquire);
    const engine::ModelRef h = reg.resolve("alpha@latest");
    EXPECT_GE(h->version(), floor);
    EXPECT_GE(h->version(), prev);
    EXPECT_LE(h->version(), kLast);
    prev = h->version();
  }
  publisher.join();
  EXPECT_EQ(reg.latest_version("alpha"), kLast);
}

}  // namespace
}  // namespace ssma::serve
