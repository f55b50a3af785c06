// Operation accounting for the SegHDC pipeline. Every segmentation
// reports how much elementary work it performed; the device model
// (src/device) converts these counts into projected edge-device latency
// for the paper's Table II and Fig. 7 "latency on PI" axes.
#ifndef SEGHDC_CORE_OP_COUNTS_HPP
#define SEGHDC_CORE_OP_COUNTS_HPP

#include <cstdint>

namespace seghdc::core {

/// Elementary-operation counts, in units of vector *elements* processed
/// (a d-dimensional XOR counts d bind_xor_bits, etc.). The element
/// units are those of the paper's dense pixel HVs on both of the
/// clusterer's point models: a unique point coded as flip runs counts d
/// bind_xor_bits like a bound row, a coded popcount d popcount_bits and
/// a coded dot d dot_adds, though each costs O(endpoints). So every
/// serving path reports the same counts for the same image, whichever
/// model ran, and the device model's inputs do not depend on it; only
/// words_scanned measures the model's own work.
struct OpCounts {
  std::uint64_t bind_xor_bits = 0;       ///< XOR binding (or coding) work
  std::uint64_t popcount_bits = 0;       ///< popcount/Hamming work
  std::uint64_t dot_adds = 0;            ///< centroid dot-product adds
  /// Centroid accumulation adds. Measured for a clustering run as the op
  /// model's logical count, not the kernel's work: dim per point added
  /// to or removed from a centroid by the update step (n * dim at
  /// iteration 0, 2 * dim per moved point afterwards), a function of the
  /// assignment history alone and so identical at every pool size. The
  /// update stages those rows bit-sliced, so it does far fewer word
  /// operations. analytic_seghdc_ops keeps the per-iteration full re-sum.
  std::uint64_t centroid_update_adds = 0;
  std::uint64_t distance_evals = 0;      ///< point-centroid distances
  /// (point, centroid) pairs the assignment step skipped without a
  /// distance: the chord-bound skips of the default cosine filter. Every
  /// assignment pair is either a distance_eval or pruned, so
  /// distance_evals + candidates_pruned == points * clusters *
  /// iterations for a clustering run. Zero under AssignMode::kExhaustive
  /// and for the Hamming ablation, which always scans exhaustively.
  std::uint64_t candidates_pruned = 0;
  /// What the assignment's distances actually read: on dense rows the
  /// 64-bit words the kernels streamed (each cosine plane pass counts
  /// its own words), on coded points the prefix-table entries read (one
  /// per endpoint per distance). The honest work figure the bound
  /// filter is judged by, where dot_adds stays in logical element
  /// units; the one field that differs between the two models.
  std::uint64_t words_scanned = 0;

  std::uint64_t total_element_ops() const {
    return bind_xor_bits + popcount_bits + dot_adds + centroid_update_adds;
  }

  OpCounts& operator+=(const OpCounts& other);
};

OpCounts operator+(OpCounts lhs, const OpCounts& rhs);

/// Analytic per-pixel op counts of a SegHDC run *without* deduplication —
/// the cost structure of the paper's reference implementation, which the
/// device latency model is calibrated against.
OpCounts analytic_seghdc_ops(std::size_t pixels, std::size_t dim,
                             std::size_t clusters, std::size_t iterations);

}  // namespace seghdc::core

#endif  // SEGHDC_CORE_OP_COUNTS_HPP
