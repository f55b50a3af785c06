// Posterize: large-K palette mapping as a segmentation workload.
// Clusters a colorful image into K palette entries, runs the SAME
// problem once with exhaustive assignment and once with the default
// kAuto (the exact triangle-inequality bound filter), and hard-fails
// (exit 1) if the label maps differ anywhere: the filter is an exactness
// contract, not an approximation. It prints the fraction of
// (point, centroid) pairs the filter skipped.
//
//   ./posterize [input.ppm] [--output posterized.ppm] [--clusters 16]
//               [--dim 2000] [--iterations 6] [--seed 42]
//
// Without an input path a synthetic 96x72 test card (two color
// gradients, a sun disc, and a horizon band) is posterized instead, so
// the example runs self-contained in CI. The output image replaces each
// pixel with its cluster's mean color.
#include <cstdio>
#include <exception>
#include <vector>

#include "src/core/session.hpp"
#include "src/imaging/pnm.hpp"
#include "src/util/cli.hpp"

namespace {

using namespace seghdc;

/// Synthetic color card: sky/sea gradients, a bright sun disc, and a
/// dark horizon band — enough distinct color families that K = 16
/// palette slots all get used.
img::ImageU8 make_test_card(std::size_t width, std::size_t height) {
  img::ImageU8 image(width, height, 3);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const bool sky = y < height / 2;
      const auto fx = static_cast<double>(x) / static_cast<double>(width);
      const auto fy = static_cast<double>(y) / static_cast<double>(height);
      if (sky) {
        image.at(x, y, 0) = static_cast<std::uint8_t>(40 + 180 * fx);
        image.at(x, y, 1) = static_cast<std::uint8_t>(90 + 120 * fy);
        image.at(x, y, 2) = static_cast<std::uint8_t>(200 - 80 * fx);
      } else {
        image.at(x, y, 0) = static_cast<std::uint8_t>(20 + 40 * fy);
        image.at(x, y, 1) = static_cast<std::uint8_t>(60 + 150 * fx);
        image.at(x, y, 2) = static_cast<std::uint8_t>(90 + 60 * fy);
      }
      // Sun disc in the upper-left sky.
      const double dx = fx - 0.25;
      const double dy = fy - 0.22;
      if (dx * dx + dy * dy < 0.012) {
        image.at(x, y, 0) = 250;
        image.at(x, y, 1) = 220;
        image.at(x, y, 2) = 90;
      }
      // Dark horizon band.
      if (y >= height / 2 && y < height / 2 + height / 16 + 1) {
        image.at(x, y, 0) = 25;
        image.at(x, y, 1) = 30;
        image.at(x, y, 2) = 45;
      }
    }
  }
  return image;
}

/// Replaces every pixel with its cluster's mean color.
img::ImageU8 palette_map(const img::ImageU8& image,
                         const img::LabelMap& labels,
                         std::size_t clusters) {
  const std::size_t channels = image.channels();
  std::vector<std::uint64_t> sum(clusters * channels, 0);
  std::vector<std::uint64_t> count(clusters, 0);
  for (std::size_t y = 0; y < image.height(); ++y) {
    for (std::size_t x = 0; x < image.width(); ++x) {
      const auto label = labels(x, y);
      ++count[label];
      for (std::size_t c = 0; c < channels; ++c) {
        sum[label * channels + c] += image.at(x, y, c);
      }
    }
  }
  img::ImageU8 out(image.width(), image.height(), 3);
  for (std::size_t y = 0; y < image.height(); ++y) {
    for (std::size_t x = 0; x < image.width(); ++x) {
      const auto label = labels(x, y);
      for (std::size_t c = 0; c < 3; ++c) {
        const auto channel = c < channels ? c : channels - 1;
        out.at(x, y, c) = static_cast<std::uint8_t>(
            sum[label * channels + channel] / count[label]);
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto clusters =
      static_cast<std::size_t>(cli.get_int("clusters", 16));
  const std::string output = cli.get("output", "posterized.ppm");

  img::ImageU8 image =
      cli.positional().empty() ? make_test_card(96, 72)
                               : img::read_pnm(cli.positional()[0]);
  std::printf("posterize: %zux%zu, %zu channel(s), %zu palette slots\n",
              image.width(), image.height(), image.channels(), clusters);

  core::SegHdcConfig config;
  config.dim = static_cast<std::size_t>(cli.get_int("dim", 2000));
  config.clusters = clusters;
  config.iterations =
      static_cast<std::size_t>(cli.get_int("iterations", 6));
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  // Same problem, both assignment modes. The kAuto run is the one we
  // keep; the exhaustive run is the ground truth it must match bit for
  // bit (same tie-breaking: lowest cluster index wins).
  config.assign_mode = core::AssignMode::kExhaustive;
  const core::SegHdcSession exhaustive_session(config);
  const auto exhaustive = exhaustive_session.segment(image);

  config.assign_mode = core::AssignMode::kAuto;
  const core::SegHdcSession auto_session(config);
  const auto filtered = auto_session.segment(image);

  if (exhaustive.labels != filtered.labels) {
    std::fprintf(stderr,
                 "FAIL: auto labels diverge from exhaustive assignment\n");
    return 1;
  }
  const auto candidate_pairs =
      filtered.ops.distance_evals + filtered.ops.candidates_pruned;
  std::printf("auto == exhaustive (%zu unique points, %zu iterations); "
              "the bound filter skipped %.1f%% of %llu candidate pairs\n",
              filtered.unique_points, filtered.iterations_run,
              candidate_pairs == 0
                  ? 0.0
                  : 100.0 *
                        static_cast<double>(filtered.ops.candidates_pruned) /
                        static_cast<double>(candidate_pairs),
              static_cast<unsigned long long>(candidate_pairs));

  img::write_ppm(palette_map(image, filtered.labels, filtered.clusters),
                 output);
  std::printf("wrote %s\n", output.c_str());
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "posterize failed: %s\n", error.what());
  return 1;
}
