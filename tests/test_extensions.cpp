// Tests for the extension features layered over the paper's core:
// histogram equalization, the Otsu classical baseline, and the
// per-pixel confidence margins.
#include <gtest/gtest.h>

#include "src/baseline/otsu_segmenter.hpp"
#include "src/core/seghdc.hpp"
#include "src/imaging/filters.hpp"
#include "src/metrics/segmentation_metrics.hpp"

namespace {

using namespace seghdc;

// --- Histogram equalization. ---

TEST(Equalize, SpreadsCompressedHistogram) {
  // Intensities squeezed into [100, 120] must expand toward [0, 255].
  img::ImageU8 image(64, 4, 1);
  for (std::size_t x = 0; x < 64; ++x) {
    for (std::size_t y = 0; y < 4; ++y) {
      image(x, y) = static_cast<std::uint8_t>(100 + (x * 20) / 63);
    }
  }
  const auto equalized = img::equalize_histogram(image);
  std::uint8_t lo = 255;
  std::uint8_t hi = 0;
  for (const auto v : equalized.pixels()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_EQ(lo, 0);
  EXPECT_GT(hi, 240);
}

TEST(Equalize, PreservesIntensityOrdering) {
  img::ImageU8 image(3, 1, 1);
  image(0, 0) = 10;
  image(1, 0) = 50;
  image(2, 0) = 200;
  const auto equalized = img::equalize_histogram(image);
  EXPECT_LT(equalized(0, 0), equalized(1, 0));
  EXPECT_LT(equalized(1, 0), equalized(2, 0));
}

TEST(Equalize, ConstantImageUnchanged) {
  const img::ImageU8 flat(8, 8, 1, 77);
  EXPECT_EQ(img::equalize_histogram(flat), flat);
}

TEST(Equalize, RejectsMultiChannel) {
  const img::ImageU8 rgb(4, 4, 3);
  EXPECT_THROW(img::equalize_histogram(rgb), std::invalid_argument);
}

// --- Otsu baseline. ---

TEST(OtsuBaseline, SeparatesCleanTwoTone) {
  img::ImageU8 image(32, 32, 1, 30);
  img::ImageU8 truth(32, 32, 1, 0);
  for (std::size_t y = 8; y < 24; ++y) {
    for (std::size_t x = 8; x < 24; ++x) {
      image(x, y) = 200;
      truth(x, y) = 255;
    }
  }
  const baseline::OtsuSegmenter otsu;
  const auto result = otsu.segment(image);
  EXPECT_GE(result.threshold, 30);
  EXPECT_LT(result.threshold, 200);
  const auto matched =
      metrics::best_foreground_iou(result.labels, 2, truth);
  EXPECT_DOUBLE_EQ(matched.iou, 1.0);
}

TEST(OtsuBaseline, HandlesRgbViaLuma) {
  img::ImageU8 image(16, 16, 3, 20);
  for (std::size_t y = 4; y < 12; ++y) {
    for (std::size_t x = 4; x < 12; ++x) {
      image(x, y, 0) = 220;
      image(x, y, 1) = 210;
      image(x, y, 2) = 230;
    }
  }
  const baseline::OtsuSegmenter otsu;
  const auto result = otsu.segment(image);
  EXPECT_EQ(result.labels(8, 8), 1u);
  EXPECT_EQ(result.labels(0, 0), 0u);
}

TEST(OtsuBaseline, EqualizeFirstOption) {
  // Low-contrast image: both variants must still produce a 2-label map.
  img::ImageU8 image(16, 16, 1, 100);
  for (std::size_t y = 4; y < 12; ++y) {
    for (std::size_t x = 4; x < 12; ++x) {
      image(x, y) = 118;
    }
  }
  const auto plain = baseline::OtsuSegmenter(false).segment(image);
  const auto equalized = baseline::OtsuSegmenter(true).segment(image);
  EXPECT_EQ(plain.labels(8, 8), 1u);
  EXPECT_EQ(equalized.labels(8, 8), 1u);
}

TEST(OtsuBaseline, FailsWhereSegHdcSucceedsUnderIlluminationRamp) {
  // A strong illumination ramp defeats a single global threshold while
  // SegHDC's position-aware clustering copes — the motivating contrast
  // for learning-based segmentation in the paper's introduction.
  const std::size_t n = 64;
  img::ImageU8 image(n, n, 1, 0);
  img::ImageU8 truth(n, n, 1, 0);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      // Background ramps 10 -> 170 left to right; squares sit 70 above.
      const auto bg = static_cast<std::uint8_t>(10 + (x * 160) / (n - 1));
      image(x, y) = bg;
    }
  }
  for (const std::size_t cx : {12u, 52u}) {
    for (std::size_t y = 24; y < 40; ++y) {
      for (std::size_t x = cx - 6; x < cx + 6; ++x) {
        image(x, y) = static_cast<std::uint8_t>(
            std::min(255, image(x, y) + 70));
        truth(x, y) = 255;
      }
    }
  }
  const auto otsu = baseline::OtsuSegmenter().segment(image);
  const double otsu_iou =
      metrics::best_foreground_iou(otsu.labels, 2, truth).iou;
  EXPECT_LT(otsu_iou, 0.75);  // the global threshold cuts the ramp
}

// --- Confidence margins. ---

TEST(Margins, DisabledByDefault) {
  img::ImageU8 image(16, 16, 1, 10);
  image(8, 8) = 250;
  core::SegHdcConfig config;
  config.dim = 512;
  config.beta = 4;
  config.iterations = 3;
  const auto result = core::SegHdc(config).segment(image);
  EXPECT_TRUE(result.margins.empty());
}

TEST(Margins, ConfidentInteriorUncertainNowhere) {
  img::ImageU8 image(32, 32, 1, 20);
  for (std::size_t y = 8; y < 24; ++y) {
    for (std::size_t x = 8; x < 24; ++x) {
      image(x, y) = 220;
    }
  }
  core::SegHdcConfig config;
  config.dim = 1024;
  config.beta = 8;
  config.iterations = 5;
  config.compute_margins = true;
  const auto result = core::SegHdc(config).segment(image);
  ASSERT_FALSE(result.margins.empty());
  ASSERT_EQ(result.margins.width(), 32u);
  // All margins non-negative; strong two-tone separation means clearly
  // positive margins almost everywhere.
  float min_margin = 1e9F;
  double sum = 0.0;
  for (const auto m : result.margins.pixels()) {
    min_margin = std::min(min_margin, m);
    sum += m;
  }
  EXPECT_GE(min_margin, 0.0F);
  EXPECT_GT(sum / static_cast<double>(result.margins.pixel_count()),
            0.01);
}

TEST(Margins, AmbiguousPixelsScoreLowerThanClearOnes) {
  // Three vertical bands: dark | mid | bright, clustered with k=2 —
  // the mid band must carry smaller margins than the extremes.
  img::ImageU8 image(48, 16, 1, 0);
  for (std::size_t y = 0; y < 16; ++y) {
    for (std::size_t x = 0; x < 48; ++x) {
      image(x, y) = x < 16 ? 10 : x < 32 ? 115 : 235;
    }
  }
  core::SegHdcConfig config;
  config.dim = 1024;
  config.beta = 4;
  config.iterations = 6;
  config.compute_margins = true;
  const auto result = core::SegHdc(config).segment(image);
  ASSERT_FALSE(result.margins.empty());
  const auto mean_margin = [&](std::size_t x0, std::size_t x1) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t y = 0; y < 16; ++y) {
      for (std::size_t x = x0; x < x1; ++x) {
        sum += result.margins(x, y);
        ++count;
      }
    }
    return sum / static_cast<double>(count);
  };
  const double dark = mean_margin(0, 16);
  const double mid = mean_margin(16, 32);
  const double bright = mean_margin(32, 48);
  EXPECT_LT(mid, dark);
  EXPECT_LT(mid, bright);
}

}  // namespace
