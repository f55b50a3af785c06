// Segmentation quality metrics. The paper's headline metric is binary
// Intersection-over-Union between the predicted segmentation map and the
// ground-truth mask (Section IV-A). Because unsupervised methods emit
// arbitrary cluster indices, each cluster must first be matched to
// foreground or background; `best_foreground_iou` performs the optimal
// matching, which is the standard protocol for unsupervised segmentation
// (and the only one that makes both SegHDC's and the CNN baseline's
// outputs comparable).
#ifndef SEGHDC_METRICS_SEGMENTATION_METRICS_HPP
#define SEGHDC_METRICS_SEGMENTATION_METRICS_HPP

#include <cstdint>
#include <vector>

#include "src/imaging/image.hpp"

namespace seghdc::metrics {

/// Pixel-level binary confusion counts between a predicted mask and a
/// ground-truth mask (non-zero = foreground in both).
struct ConfusionCounts {
  std::uint64_t true_positive = 0;
  std::uint64_t false_positive = 0;
  std::uint64_t false_negative = 0;
  std::uint64_t true_negative = 0;

  double iou() const;
  double dice() const;
  double pixel_accuracy() const;
  double precision() const;
  double recall() const;
};

/// Confusion counts of `predicted` vs `truth`; both 1-channel, equal size.
ConfusionCounts confusion(const img::ImageU8& predicted,
                          const img::ImageU8& truth);

/// Binary IoU of `predicted` vs `truth` (non-zero = foreground).
double binary_iou(const img::ImageU8& predicted, const img::ImageU8& truth);

/// Result of the optimal cluster -> {foreground, background} matching.
struct MatchedIou {
  double iou = 0.0;
  /// Bit i set = cluster label i was assigned to foreground.
  std::uint32_t foreground_mask = 0;
  /// The predicted binary mask under the best assignment (255 = fg).
  img::ImageU8 mask;
};

/// Evaluates a `clusters`-way label map against a binary ground truth by
/// trying every non-trivial assignment of clusters to foreground and
/// returning the best binary IoU. `clusters` must be in [2, 16] (the
/// paper uses 2 or 3).
MatchedIou best_foreground_iou(const img::LabelMap& labels,
                               std::size_t clusters,
                               const img::ImageU8& truth);

/// Like best_foreground_iou but for label maps with an arbitrary number
/// of labels (the CNN baseline can emit up to its channel count). For a
/// single-foreground IoU the optimal assignment is computed greedily per
/// label over the exact confusion counts, which is optimal for <= 16
/// labels (exhaustive) and a tight approximation beyond.
MatchedIou best_foreground_iou_any(const img::LabelMap& labels,
                                   const img::ImageU8& truth);

/// Mean of per-image IoU scores (the aggregation used in paper Table I).
double mean(const std::vector<double>& values);

/// FNV-1a over the raw label values, row-major — a byte-order
/// independent fingerprint of a segmentation. The golden regression
/// tests, bench_eval's cross-path check and perfbench's pinned label
/// hashes all share this one definition. Chain batches by passing the
/// previous hash as `seed`.
std::uint64_t label_map_hash(const img::LabelMap& labels,
                             std::uint64_t seed = 14695981039346656037ULL);

}  // namespace seghdc::metrics

#endif  // SEGHDC_METRICS_SEGMENTATION_METRICS_HPP
