// Tier-1 suite for the multi-tenant fleet layer (src/serve/fleet.*) and
// its quota primitive (util::AdmissionGate). The gate under test:
// multi-tenancy changes who waits, never what anyone gets — every
// tenant's results must be bit-identical to a solo SegHdcServer with
// that tenant's config, at every quota setting, contention level, and
// retire schedule. The golden tenant pins the PR-2 batch hash
// 13206585988845182882 through the fleet path.
//
// SEGHDC_TEST_QUEUE_CAP (default 0 = unbounded) forces every tenant's
// pending-queue capacity in the determinism tests, so a CI job can run
// the whole suite under 1-slot queues (forced fleet-gate contention) —
// outputs must not move.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/config.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/serve/fleet.hpp"
#include "src/serve/server.hpp"
#include "src/util/admission_gate.hpp"
#include "src/util/parallel.hpp"

namespace {

using namespace seghdc;

std::size_t test_queue_capacity() {
  const char* env = std::getenv("SEGHDC_TEST_QUEUE_CAP");
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (*env < '0' || *env > '9' || *end != '\0') {
    throw std::invalid_argument(
        std::string("SEGHDC_TEST_QUEUE_CAP must be a non-negative "
                    "integer, got '") +
        env + "'");
  }
  return static_cast<std::size_t>(value);
}

img::ImageU8 make_gray_card(std::size_t size, std::uint8_t bg,
                            std::uint8_t fg) {
  img::ImageU8 image(size, size, 1, bg);
  for (std::size_t y = size / 4; y < 3 * size / 4; ++y) {
    for (std::size_t x = size / 4; x < 3 * size / 4; ++x) {
      image(x, y) = fg;
    }
  }
  for (std::size_t x = 0; x < size; ++x) {
    image(x, 0) = static_cast<std::uint8_t>((x * 199) % 256);
  }
  return image;
}

img::ImageU8 make_rgb_card(std::size_t width, std::size_t height) {
  img::ImageU8 image(width, height, 3, 15);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      if ((x / 6 + y / 6) % 2 == 0) {
        image(x, y, 0) = 190;
        image(x, y, 1) = static_cast<std::uint8_t>(140 + (x % 32));
        image(x, y, 2) = 210;
      } else {
        image(x, y, 2) = static_cast<std::uint8_t>(20 + (y % 16));
      }
    }
  }
  return image;
}

/// The exact batch + config of SegHdcSession.SegmentManyGoldenLabelHash.
std::vector<img::ImageU8> golden_batch() {
  std::vector<img::ImageU8> images;
  images.push_back(make_gray_card(32, 30, 200));
  images.push_back(make_rgb_card(36, 28));
  images.push_back(make_gray_card(24, 20, 235));
  return images;
}

core::SegHdcConfig golden_config() {
  core::SegHdcConfig config;  // fixed seed on purpose (not env-driven)
  config.dim = 512;
  config.beta = 4;
  config.iterations = 4;
  config.seed = 42;
  return config;
}

constexpr std::uint64_t kGoldenBatchHash = 13206585988845182882ULL;

std::uint64_t results_hash(
    const std::vector<core::SegmentationResult>& results) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const auto& result : results) {
    hash = metrics::label_map_hash(result.labels, hash);
  }
  return hash;
}

/// A tenant other than the golden one: different dim/seed/iterations so
/// cross-tenant contamination cannot hash-collide by accident.
core::SegHdcConfig variant_config(std::uint64_t seed, std::size_t dim,
                                  std::size_t iterations) {
  core::SegHdcConfig config;
  config.dim = dim;
  config.beta = 4;
  config.iterations = iterations;
  config.seed = seed;
  return config;
}

/// The answer key: what a solo SegHdcServer (== SegHdc synchronous
/// path, pinned by test_serve) delivers for this config and batch.
std::uint64_t solo_hash(const core::SegHdcConfig& config,
                        const std::vector<img::ImageU8>& images) {
  serve::SegHdcServer server(config);
  std::vector<std::future<core::SegmentationResult>> futures;
  futures.reserve(images.size());
  for (const auto& image : images) {
    futures.push_back(server.submit(image));
  }
  std::vector<core::SegmentationResult> results;
  results.reserve(futures.size());
  for (auto& future : futures) {
    results.push_back(future.get());
  }
  return results_hash(results);
}

serve::TenantOptions contended_tenant_options() {
  serve::TenantOptions options;
  options.max_queued = test_queue_capacity();
  options.max_in_flight = 2;
  return options;
}

// --- AdmissionGate: the in-flight quota primitive. ---

TEST(AdmissionGate, ZeroLimitIsUnlimitedButStillCounts) {
  util::AdmissionGate gate;  // limit 0
  EXPECT_EQ(gate.limit(), 0u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(gate.try_acquire());
  }
  EXPECT_EQ(gate.in_use(), 100u);
  for (int i = 0; i < 100; ++i) {
    gate.release();
  }
  EXPECT_EQ(gate.in_use(), 0u);
}

TEST(AdmissionGate, TryAcquireRefusesPastTheLimit) {
  util::AdmissionGate gate(2);
  EXPECT_TRUE(gate.try_acquire());
  EXPECT_TRUE(gate.try_acquire());
  EXPECT_FALSE(gate.try_acquire());  // full — never blocks
  gate.release();
  EXPECT_TRUE(gate.try_acquire());  // slot came back
  EXPECT_EQ(gate.in_use(), 2u);
}

TEST(AdmissionGate, BlockingAcquireWakesOnRelease) {
  util::AdmissionGate gate(1);
  ASSERT_TRUE(gate.acquire());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    acquired.store(gate.acquire());
  });
  gate.release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(gate.in_use(), 1u);
}

TEST(AdmissionGate, CloseFailsAcquiresButHeldSlotsStayValid) {
  util::AdmissionGate gate(2);
  ASSERT_TRUE(gate.try_acquire());
  ASSERT_TRUE(gate.try_acquire());
  gate.close();
  EXPECT_TRUE(gate.closed());
  EXPECT_FALSE(gate.try_acquire());
  EXPECT_FALSE(gate.acquire());
  EXPECT_EQ(gate.in_use(), 2u);  // held slots survive the close
  gate.release();
  gate.release();
  EXPECT_EQ(gate.in_use(), 0u);
}

TEST(AdmissionGate, CloseWakesABlockedAcquirerWithFalse) {
  util::AdmissionGate gate(1);
  ASSERT_TRUE(gate.acquire());
  std::atomic<int> outcome{-1};
  std::thread waiter([&] { outcome.store(gate.acquire() ? 1 : 0); });
  gate.close();
  waiter.join();
  EXPECT_EQ(outcome.load(), 0);
  gate.release();
}

TEST(AdmissionGate, ReleaseWithoutAcquireIsAContractViolation) {
  util::AdmissionGate gate(1);
  EXPECT_THROW(gate.release(), std::logic_error);
}

// --- Fleet basics: registry, validation, stats plumbing. ---

TEST(SegHdcFleet, AddHasRetireRoundTrip) {
  serve::SegHdcFleet fleet;
  EXPECT_FALSE(fleet.has_tenant("a"));
  fleet.add_tenant("a", golden_config());
  fleet.add_tenant("b", variant_config(7, 256, 3));
  EXPECT_TRUE(fleet.has_tenant("a"));
  EXPECT_EQ(fleet.tenant_names(),
            (std::vector<std::string>{"a", "b"}));
  fleet.retire_tenant("a");
  EXPECT_FALSE(fleet.has_tenant("a"));
  EXPECT_EQ(fleet.tenant_names(), (std::vector<std::string>{"b"}));
}

TEST(SegHdcFleet, UnknownTenantThrowsEverywhere) {
  serve::SegHdcFleet fleet;
  fleet.add_tenant("real", golden_config());
  EXPECT_THROW(fleet.submit("ghost", make_gray_card(16, 10, 200)),
               serve::UnknownTenantError);
  EXPECT_THROW(fleet.retire_tenant("ghost"), serve::UnknownTenantError);
  EXPECT_THROW(fleet.tenant_stats("ghost"), serve::UnknownTenantError);
}

TEST(SegHdcFleet, DuplicateTenantNameThrows) {
  serve::SegHdcFleet fleet;
  fleet.add_tenant("a", golden_config());
  EXPECT_THROW(fleet.add_tenant("a", golden_config()),
               serve::DuplicateTenantError);
}

TEST(SegHdcFleet, BadTenantOptionsThrowWithoutRegistering) {
  serve::SegHdcFleet fleet;
  serve::TenantOptions zero_weight;
  zero_weight.weight = 0;
  EXPECT_THROW(fleet.add_tenant("w", golden_config(), zero_weight),
               std::invalid_argument);
  core::SegHdcConfig bad = golden_config();
  bad.dim = 0;  // the session rejects this
  EXPECT_THROW(fleet.add_tenant("c", bad), std::invalid_argument);
  EXPECT_THROW(fleet.add_tenant("", golden_config()),
               std::invalid_argument);
  EXPECT_TRUE(fleet.tenant_names().empty());
  // ...and the failed adds must not have poisoned the name.
  fleet.add_tenant("w", golden_config());
  EXPECT_TRUE(fleet.has_tenant("w"));
}

TEST(SegHdcFleet, SubmitAfterFleetShutdownThrows) {
  serve::SegHdcFleet fleet;
  fleet.add_tenant("a", golden_config());
  fleet.shutdown();
  EXPECT_THROW(fleet.submit("a", make_gray_card(16, 10, 200)),
               serve::UnknownTenantError);  // retired with the fleet
  EXPECT_THROW(fleet.add_tenant("b", golden_config()),
               serve::ShutdownError);
}

// --- The determinism gate. ---

TEST(SegHdcFleet, GoldenTenantReproducesTheGoldenBatchHash) {
  serve::SegHdcFleet fleet;
  fleet.add_tenant("golden", golden_config(), contended_tenant_options());
  std::vector<std::future<core::SegmentationResult>> futures;
  for (const auto& image : golden_batch()) {
    futures.push_back(fleet.submit("golden", image));
  }
  std::vector<core::SegmentationResult> results;
  for (auto& future : futures) {
    results.push_back(future.get());
  }
  EXPECT_EQ(results_hash(results), kGoldenBatchHash);
  const auto stats = fleet.tenant_stats("golden");
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.dispatched, 3u);
  EXPECT_EQ(stats.server.completed, 3u);
}

TEST(SegHdcFleet, EveryTenantMatchesItsSoloServerUnderContention) {
  // Three tenants with different configs, submitted interleaved from
  // three threads, squeezed through a 2-slot fleet-wide in-flight cap
  // (and SEGHDC_TEST_QUEUE_CAP-sized pending queues when CI forces
  // them): every tenant's hash must equal its solo-server hash, and the
  // golden tenant must still hit the golden constant. The second pass
  // runs the fleet on a one-thread pool with 2+2 stage threads per
  // tenant and one-slot pending queues.
  struct Spec {
    std::string name;
    core::SegHdcConfig config;
  };
  const std::vector<Spec> specs = {
      {"golden", golden_config()},
      {"small", variant_config(7, 256, 3)},
      {"long", variant_config(1234, 384, 6)},
  };
  const auto images = golden_batch();
  util::ThreadPool one(1);

  for (const bool narrow : {false, true}) {
    SCOPED_TRACE(narrow ? "one-thread pool" : "shared pool");
    serve::FleetOptions fleet_options;
    fleet_options.max_in_flight_total = 2;
    auto tenant_options = contended_tenant_options();
    if (narrow) {
      fleet_options.pool = &one;
      tenant_options.max_queued = 1;
      tenant_options.encode_workers = 2;
      tenant_options.cluster_workers = 2;
    }
    serve::SegHdcFleet fleet(fleet_options);
    for (const auto& spec : specs) {
      fleet.add_tenant(spec.name, spec.config, tenant_options);
    }

    constexpr int kRounds = 3;  // 3 tenants x 3 rounds x 3 images
    std::vector<std::vector<std::future<core::SegmentationResult>>> futures(
        specs.size());
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < specs.size(); ++t) {
      submitters.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          for (const auto& image : images) {
            futures[t].push_back(fleet.submit(specs[t].name, image));
          }
        }
      });
    }
    for (auto& thread : submitters) {
      thread.join();
    }

    for (std::size_t t = 0; t < specs.size(); ++t) {
      std::vector<core::SegmentationResult> results;
      for (auto& future : futures[t]) {
        results.push_back(future.get());
      }
      // Per-round hash: each round of 3 images is the golden batch shape.
      for (int round = 0; round < kRounds; ++round) {
        std::vector<core::SegmentationResult> batch(
            results.begin() + round * 3, results.begin() + round * 3 + 3);
        const std::uint64_t expected =
            specs[t].name == "golden" ? kGoldenBatchHash
                                      : solo_hash(specs[t].config, images);
        EXPECT_EQ(results_hash(batch), expected)
            << "tenant " << specs[t].name << " round " << round;
      }
    }

    const auto stats = fleet.stats();
    EXPECT_EQ(stats.accepted, specs.size() * kRounds * images.size());
    EXPECT_EQ(stats.completed, stats.accepted);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.latency.count, stats.completed);
  }
}

TEST(SegHdcFleet, RetiringOneTenantLeavesTheOthersBitIdentical) {
  serve::FleetOptions fleet_options;
  fleet_options.max_in_flight_total = 2;
  serve::SegHdcFleet fleet(fleet_options);
  fleet.add_tenant("golden", golden_config(), contended_tenant_options());
  fleet.add_tenant("doomed", variant_config(9, 256, 3),
                   contended_tenant_options());

  const auto images = golden_batch();
  std::vector<std::future<core::SegmentationResult>> golden_futures;
  std::vector<std::future<core::SegmentationResult>> doomed_futures;
  for (int round = 0; round < 2; ++round) {
    for (const auto& image : images) {
      golden_futures.push_back(fleet.submit("golden", image));
      doomed_futures.push_back(fleet.submit("doomed", image));
    }
  }
  // Retire mid-load: drains everything "doomed" accepted, while
  // "golden" keeps serving.
  fleet.retire_tenant("doomed", serve::ShutdownMode::kDrain);
  EXPECT_FALSE(fleet.has_tenant("doomed"));
  EXPECT_THROW(fleet.submit("doomed", images[0]),
               serve::UnknownTenantError);

  const std::uint64_t doomed_expected =
      solo_hash(variant_config(9, 256, 3), images);
  for (int round = 0; round < 2; ++round) {
    std::vector<core::SegmentationResult> golden_results;
    std::vector<core::SegmentationResult> doomed_results;
    for (int i = 0; i < 3; ++i) {
      golden_results.push_back(golden_futures[round * 3 + i].get());
      doomed_results.push_back(doomed_futures[round * 3 + i].get());
    }
    EXPECT_EQ(results_hash(golden_results), kGoldenBatchHash)
        << "survivor perturbed in round " << round;
    EXPECT_EQ(results_hash(doomed_results), doomed_expected)
        << "drain dropped or corrupted round " << round;
  }
}

TEST(SegHdcFleet, RetireCancelFailsPendingButNeverCorruptsSurvivors) {
  serve::FleetOptions fleet_options;
  fleet_options.max_in_flight_total = 1;  // keep most requests at the gate
  serve::SegHdcFleet fleet(fleet_options);
  fleet.add_tenant("golden", golden_config());
  fleet.add_tenant("doomed", variant_config(9, 256, 3));

  const auto images = golden_batch();
  std::vector<std::future<core::SegmentationResult>> golden_futures;
  std::vector<std::future<core::SegmentationResult>> doomed_futures;
  for (int round = 0; round < 2; ++round) {
    for (const auto& image : images) {
      golden_futures.push_back(fleet.submit("golden", image));
      doomed_futures.push_back(fleet.submit("doomed", image));
    }
  }
  fleet.retire_tenant("doomed", serve::ShutdownMode::kCancel);

  std::size_t delivered = 0;
  std::size_t cancelled = 0;
  for (auto& future : doomed_futures) {
    try {
      (void)future.get();
      ++delivered;
    } catch (const serve::CancelledError&) {
      ++cancelled;
    }
  }
  EXPECT_EQ(delivered + cancelled, doomed_futures.size());

  std::vector<core::SegmentationResult> golden_results;
  for (auto& future : golden_futures) {
    golden_results.push_back(future.get());
  }
  std::vector<core::SegmentationResult> first_round(
      golden_results.begin(), golden_results.begin() + 3);
  std::vector<core::SegmentationResult> second_round(
      golden_results.begin() + 3, golden_results.end());
  EXPECT_EQ(results_hash(first_round), kGoldenBatchHash);
  EXPECT_EQ(results_hash(second_round), kGoldenBatchHash);
}

// --- Admission quotas. ---

TEST(SegHdcFleet, RejectPolicyRefusesAFullPendingQueue) {
  serve::FleetOptions fleet_options;
  fleet_options.max_in_flight_total = 1;
  serve::SegHdcFleet fleet(fleet_options);
  serve::TenantOptions options;
  options.max_queued = 1;
  options.max_in_flight = 1;
  options.admission = serve::BackpressurePolicy::kReject;
  fleet.add_tenant("tight", golden_config(), options);

  // All submissions use the same image, so every future that IS
  // delivered must carry the same bits regardless of which submissions
  // were refused at the gate.
  const img::ImageU8 image = make_gray_card(32, 30, 200);
  const std::uint64_t expected = solo_hash(golden_config(), {image});

  std::vector<std::future<core::SegmentationResult>> futures;
  std::size_t rejected = 0;
  for (int i = 0; i < 32; ++i) {
    try {
      futures.push_back(fleet.submit("tight", image));
    } catch (const serve::RejectedError& e) {
      ++rejected;
      EXPECT_STREQ(e.what(),
                   "SegHdcFleet tenant 'tight' admission queue full");
    }
  }
  for (auto& future : futures) {
    std::vector<core::SegmentationResult> one;
    one.push_back(future.get());
    EXPECT_EQ(results_hash(one), expected);
  }
  const auto stats = fleet.tenant_stats("tight");
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.accepted, futures.size());
  EXPECT_EQ(stats.accepted + stats.rejected, 32u);
  // 32 instant submits against a 1-slot queue draining through
  // millisecond-scale segmentations: some must have been refused.
  EXPECT_GT(rejected, 0u);
}

TEST(SegHdcFleet, PerTenantInFlightCapIsRespected) {
  serve::SegHdcFleet fleet;
  serve::TenantOptions options;
  options.max_in_flight = 1;
  fleet.add_tenant("capped", golden_config(), options);
  std::vector<std::future<core::SegmentationResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(fleet.submit("capped", make_gray_card(24, 20, 235)));
    EXPECT_LE(fleet.tenant_stats("capped").in_flight, 1u);
  }
  for (auto& future : futures) {
    (void)future.get();
  }
  EXPECT_EQ(fleet.tenant_stats("capped").dispatched, 6u);
}

// --- Fair share. ---

TEST(SegHdcFleet, LateTenantIsNotStarvedByAnEarlierFlood) {
  // One fleet-wide slot: dispatch order is fully serialised, so the
  // round-robin rotation is observable. Tenant A floods 8 heavy images;
  // tenant B then submits 2. Under fair share B's requests interleave
  // with A's (B done after at most ~4 dispatches) instead of waiting
  // behind all 8.
  serve::FleetOptions fleet_options;
  fleet_options.max_in_flight_total = 1;
  serve::SegHdcFleet fleet(fleet_options);
  fleet.add_tenant("flood", golden_config());
  fleet.add_tenant("late", golden_config());

  const img::ImageU8 heavy = make_gray_card(48, 30, 200);
  std::vector<std::future<core::SegmentationResult>> flood_futures;
  for (int i = 0; i < 8; ++i) {
    flood_futures.push_back(fleet.submit("flood", heavy));
  }
  std::vector<std::future<core::SegmentationResult>> late_futures;
  for (int i = 0; i < 2; ++i) {
    late_futures.push_back(fleet.submit("late", heavy));
  }
  for (auto& future : late_futures) {
    (void)future.get();
  }
  // The moment B's last result arrived, A's flood must not be done:
  // strict alternation means at most ~4 of its 8 completed (generous
  // bound: < 8 — finishing all 8 would need 4+ more sequential
  // segmentations after B's last completion).
  EXPECT_LT(fleet.tenant_stats("flood").server.completed, 8u);
  for (auto& future : flood_futures) {
    (void)future.get();
  }
  EXPECT_EQ(fleet.tenant_stats("flood").server.completed, 8u);
}

TEST(SegHdcFleet, WeightsSkewTheShareButNeverTheBits) {
  serve::FleetOptions fleet_options;
  fleet_options.max_in_flight_total = 1;
  serve::SegHdcFleet fleet(fleet_options);
  serve::TenantOptions heavy_share;
  heavy_share.weight = 3;
  fleet.add_tenant("heavy", golden_config(), heavy_share);
  fleet.add_tenant("light", golden_config());

  const auto images = golden_batch();
  std::vector<std::future<core::SegmentationResult>> heavy_futures;
  std::vector<std::future<core::SegmentationResult>> light_futures;
  for (const auto& image : images) {
    heavy_futures.push_back(fleet.submit("heavy", image));
    light_futures.push_back(fleet.submit("light", image));
  }
  std::vector<core::SegmentationResult> heavy_results;
  std::vector<core::SegmentationResult> light_results;
  for (auto& future : heavy_futures) {
    heavy_results.push_back(future.get());
  }
  for (auto& future : light_futures) {
    light_results.push_back(future.get());
  }
  EXPECT_EQ(results_hash(heavy_results), kGoldenBatchHash);
  EXPECT_EQ(results_hash(light_results), kGoldenBatchHash);
}

// --- Hot add under load. ---

TEST(SegHdcFleet, AddTenantWhileAnotherIsUnderLoad) {
  serve::SegHdcFleet fleet;
  fleet.add_tenant("first", golden_config(), contended_tenant_options());
  const auto images = golden_batch();
  std::vector<std::future<core::SegmentationResult>> first_futures;
  for (const auto& image : images) {
    first_futures.push_back(fleet.submit("first", image));
  }
  fleet.add_tenant("second", golden_config(), contended_tenant_options());
  std::vector<std::future<core::SegmentationResult>> second_futures;
  for (const auto& image : images) {
    second_futures.push_back(fleet.submit("second", image));
  }
  std::vector<core::SegmentationResult> first_results;
  std::vector<core::SegmentationResult> second_results;
  for (auto& future : first_futures) {
    first_results.push_back(future.get());
  }
  for (auto& future : second_futures) {
    second_results.push_back(future.get());
  }
  EXPECT_EQ(results_hash(first_results), kGoldenBatchHash);
  EXPECT_EQ(results_hash(second_results), kGoldenBatchHash);
}

}  // namespace
