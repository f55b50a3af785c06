// Tier-1 golden at the paper's operating point: Table I's configs
// (d = 10,000, exact colours, 10 iterations) on 12 full-size BBBC005,
// DSB2018 and MoNuSeg images (tests/golden_fixture.hpp). The card
// goldens run at d <= 800 with at most 4 iterations, where K-Means
// barely moves a point after its first update; here every image moves
// points for several iterations, so the coded points' column runs and
// the banks' removals of moved-out points both decide labels. The
// chained label hash and the mean IoU are pinned through segment() at
// pools {1, 4}, segment_many, and a SegHdcServer: every path must
// reproduce perfbench's pinned `paper_table1` hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/session.hpp"
#include "src/metrics/segmentation_metrics.hpp"
#include "src/serve/server.hpp"
#include "src/util/parallel.hpp"
#include "tests/golden_fixture.hpp"

namespace {

using namespace seghdc;
using namespace seghdc::golden;

const PaperCases& cases() {
  static const PaperCases paper = paper_table1_cases();
  return paper;
}

/// Pins the chained hash and mean IoU of `results`, one per sample in
/// rotation order.
void expect_paper_golden(const std::vector<core::SegmentationResult>& results,
                         const std::string& path) {
  const PaperCases& paper = cases();
  ASSERT_EQ(results.size(), paper.samples.size()) << path;
  std::vector<double> iou;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& config = paper.configs[paper.case_of[i]];
    iou.push_back(metrics::best_foreground_iou(results[i].labels,
                                               config.clusters,
                                               paper.samples[i].mask)
                      .iou);
  }
  EXPECT_EQ(results_hash(results), kPaperTable1Hash)
      << "paper-scale label hash drifted through " << path;
  EXPECT_NEAR(metrics::mean(iou), kPaperTable1MeanIou, 5e-5)
      << "paper-scale mean IoU drifted through " << path;
}

TEST(PaperGolden, SegmentAtPoolsOneAndFour) {
  const PaperCases& paper = cases();
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    std::vector<std::unique_ptr<core::SegHdcSession>> sessions;
    for (const auto& config : paper.configs) {
      sessions.push_back(std::make_unique<core::SegHdcSession>(
          config, core::SegHdcSession::Options{&pool}));
    }
    std::vector<core::SegmentationResult> results;
    for (std::size_t i = 0; i < paper.samples.size(); ++i) {
      results.push_back(
          sessions[paper.case_of[i]]->segment(paper.samples[i].image));
    }
    expect_paper_golden(results,
                        "segment() at pool " + std::to_string(threads));
  }
}

TEST(PaperGolden, SegmentMany) {
  const PaperCases& paper = cases();
  util::ThreadPool pool(4);
  std::vector<core::SegmentationResult> results(paper.samples.size());
  for (std::size_t c = 0; c < paper.configs.size(); ++c) {
    std::vector<img::ImageU8> images;
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < paper.samples.size(); ++i) {
      if (paper.case_of[i] == c) {
        images.push_back(paper.samples[i].image);
        slots.push_back(i);
      }
    }
    const core::SegHdcSession session(paper.configs[c],
                                      core::SegHdcSession::Options{&pool});
    auto batch = session.segment_many(images);
    for (std::size_t k = 0; k < slots.size(); ++k) {
      results[slots[k]] = std::move(batch[k]);
    }
  }
  expect_paper_golden(results, "segment_many");
}

TEST(PaperGolden, Server) {
  // One server per dataset config, one after another, so at most one
  // dataset's images are in flight at a time.
  const PaperCases& paper = cases();
  util::ThreadPool pool(4);
  std::vector<core::SegmentationResult> results(paper.samples.size());
  for (std::size_t c = 0; c < paper.configs.size(); ++c) {
    serve::ServerOptions options;
    options.queue_capacity = test_queue_capacity();
    options.pool = &pool;
    serve::SegHdcServer server(paper.configs[c], options);
    std::vector<std::pair<std::size_t, std::future<core::SegmentationResult>>>
        futures;
    for (std::size_t i = 0; i < paper.samples.size(); ++i) {
      if (paper.case_of[i] == c) {
        futures.emplace_back(i, server.submit(paper.samples[i].image));
      }
    }
    for (auto& [slot, future] : futures) {
      results[slot] = future.get();
    }
  }
  expect_paper_golden(results, "SegHdcServer");
}

}  // namespace
