// Position encoder (paper Section III-①, Fig. 3).
//
// Encodes a pixel coordinate (row i, column j) as p(i,j) = r_i XOR c_j
// where the row/column hypervector ladders are constructed so that the
// Hamming distance between two position HVs equals the (block) Manhattan
// distance between the coordinates scaled by the flip units:
//
//   hamming(p(i,j), p(i+m, j+n)) = |m|' * x_row + |n|' * x_col
//
// (|.|' = distance in beta-sized blocks). The construction: row HVs flip
// cumulative runs of x_row bits inside the FIRST half of the vector,
// column HVs inside the SECOND half, so row and column flips can never
// collide (the failure of the naive "uniform" encoding, Fig. 3(a), kept
// here as an ablation variant).
#ifndef SEGHDC_CORE_POSITION_ENCODER_HPP
#define SEGHDC_CORE_POSITION_ENCODER_HPP

#include <cstddef>
#include <utility>
#include <vector>

#include "src/core/config.hpp"
#include "src/hdc/hypervector.hpp"
#include "src/util/rng.hpp"

namespace seghdc::core {

/// Geometry + encoding parameters of a PositionEncoder.
struct PositionEncoderConfig {
  std::size_t dim = 10000;
  std::size_t rows = 0;     ///< image height
  std::size_t cols = 0;     ///< image width
  PositionEncoding encoding = PositionEncoding::kBlockDecayManhattan;
  double alpha = 0.2;       ///< Eq. 5 decay ratio, in (0, 1]
  std::size_t beta = 1;     ///< block size (>= 1); used by kBlockDecay*
  FlipUnitBasis flip_unit_basis = FlipUnitBasis::kRows;
};

/// Precomputes the row/column HV ladders for one image geometry and
/// serves position HVs. Immutable after construction.
class PositionEncoder {
 public:
  /// Builds the ladders; consumes randomness from `rng` (the base HVs).
  PositionEncoder(const PositionEncoderConfig& config, util::Rng& rng);

  const PositionEncoderConfig& config() const { return config_; }

  /// Row HV for image row `i` (i < rows).
  const hdc::HyperVector& row_hv(std::size_t i) const;

  /// Column HV for image column `j` (j < cols).
  const hdc::HyperVector& col_hv(std::size_t j) const;

  /// Position HV p(i,j) = row_hv(i) XOR col_hv(j).
  hdc::HyperVector encode(std::size_t i, std::size_t j) const;

  /// Block index of row i: i/beta for the block variant, i otherwise.
  std::size_t row_block(std::size_t i) const;
  std::size_t col_block(std::size_t j) const;

  /// Side of the square pixel blocks that share one position HV, i.e.
  /// what row_block/col_block divide by: beta for kBlockDecayManhattan,
  /// 1 for every other encoding.
  std::size_t block_size() const { return block_; }

  /// Number of distinct row/column HVs (= number of blocks).
  std::size_t distinct_rows() const { return row_ladder_.size(); }
  std::size_t distinct_cols() const { return col_ladder_.size(); }

  /// The flip run [begin, end) that turns row_hv(0) into row_hv(i), and
  /// col_hv(0) into col_hv(j): block b's ladder HV flips b flip units
  /// from the start of its region. The constructor rejects ladders that
  /// would overrun their region, so a run never wraps. Not for kRandom,
  /// whose ladders are not flip runs.
  std::pair<std::size_t, std::size_t> row_run(std::size_t i) const;
  std::pair<std::size_t, std::size_t> col_run(std::size_t j) const;

  /// Bits flipped per row/column block step (0 for kRandom).
  std::size_t row_flip_unit() const { return x_row_; }
  std::size_t col_flip_unit() const { return x_col_; }

 private:
  void build_ladder(std::vector<hdc::HyperVector>& ladder,
                    std::size_t block_count, std::size_t flip_unit,
                    std::size_t region_begin, std::size_t region_end,
                    util::Rng& rng);

  PositionEncoderConfig config_;
  std::size_t block_ = 1;   ///< effective beta (1 unless kBlockDecay)
  std::size_t x_row_ = 0;
  std::size_t x_col_ = 0;
  std::size_t col_region_begin_ = 0;  ///< rows flip from bit 0
  std::vector<hdc::HyperVector> row_ladder_;  ///< one HV per row block
  std::vector<hdc::HyperVector> col_ladder_;  ///< one HV per column block
};

}  // namespace seghdc::core

#endif  // SEGHDC_CORE_POSITION_ENCODER_HPP
