#include "src/core/position_encoder.hpp"

#include <algorithm>

#include "src/util/contracts.hpp"

namespace seghdc::core {

namespace {

std::size_t blocks_for(std::size_t extent, std::size_t block) {
  return (extent + block - 1) / block;
}

}  // namespace

PositionEncoder::PositionEncoder(const PositionEncoderConfig& config,
                                 util::Rng& rng)
    : config_(config) {
  util::expects(config_.dim >= 2, "PositionEncoder dim must be >= 2");
  util::expects(config_.rows > 0 && config_.cols > 0,
                "PositionEncoder needs a non-empty image geometry");
  util::expects(config_.alpha > 0.0 && config_.alpha <= 1.0,
                "PositionEncoder alpha must be in (0, 1]");
  util::expects(config_.beta >= 1, "PositionEncoder beta must be >= 1");

  const std::size_t d = config_.dim;
  const bool blocked =
      config_.encoding == PositionEncoding::kBlockDecayManhattan;
  block_ = blocked ? config_.beta : 1;
  const std::size_t row_blocks = blocks_for(config_.rows, block_);
  const std::size_t col_blocks = blocks_for(config_.cols, block_);

  // Effective decay ratio per variant: kManhattan is the alpha = 1 case
  // of the decayed ladder (Fig. 3(b) vs (c)).
  const double alpha =
      config_.encoding == PositionEncoding::kManhattan ? 1.0 : config_.alpha;

  switch (config_.encoding) {
    case PositionEncoding::kRandom: {
      // RPos ablation: one i.i.d. random HV per row/column block; no
      // distance structure at all.
      row_ladder_.reserve(row_blocks);
      for (std::size_t b = 0; b < row_blocks; ++b) {
        row_ladder_.push_back(hdc::HyperVector::random(d, rng));
      }
      col_ladder_.reserve(col_blocks);
      for (std::size_t b = 0; b < col_blocks; ++b) {
        col_ladder_.push_back(hdc::HyperVector::random(d, rng));
      }
      return;
    }
    case PositionEncoding::kUniform: {
      // Fig. 3(a): Eq. 3 flip units, both ladders flipping from bit 0 of
      // the FULL vector — row and column flips collide and distances
      // diminish. Kept for the ablation bench / property tests.
      x_row_ = d / row_blocks;
      x_col_ = d / col_blocks;
      build_ladder(row_ladder_, row_blocks, x_row_, 0, d, rng);
      build_ladder(col_ladder_, col_blocks, x_col_, 0, d, rng);
      return;
    }
    case PositionEncoding::kManhattan:
    case PositionEncoding::kDecayManhattan:
    case PositionEncoding::kBlockDecayManhattan: {
      const std::size_t half = d / 2;
      // Eq. 5: x = floor(alpha*d / (2*N)); N = rows for the literal paper
      // formula, N = blocks so the ladder spans alpha*d/2 independent of
      // beta (see config.hpp FlipUnitBasis).
      const std::size_t n_rows =
          config_.flip_unit_basis == FlipUnitBasis::kRows ? config_.rows
                                                          : row_blocks;
      const std::size_t n_cols =
          config_.flip_unit_basis == FlipUnitBasis::kRows ? config_.cols
                                                          : col_blocks;
      x_row_ = static_cast<std::size_t>(alpha * static_cast<double>(d) /
                                        (2.0 * static_cast<double>(n_rows)));
      x_col_ = static_cast<std::size_t>(alpha * static_cast<double>(d) /
                                        (2.0 * static_cast<double>(n_cols)));
      // Eq. 5 floors to 0 when d < 2N/alpha; clamp to one bit per step
      // so position information degrades gracefully instead of
      // collapsing every row onto one HV (see FlipUnitBasis docs).
      x_row_ = std::max<std::size_t>(x_row_, 1);
      x_col_ = std::max<std::size_t>(x_col_, 1);
      // The ladders must stay inside their half-regions; the clamp above
      // can overrun them only for degenerate geometries (more blocks
      // than d/2), which the wrap-around in build_ladder would silently
      // corrupt — reject instead.
      util::expects(row_blocks * x_row_ <= half,
                    "PositionEncoder: dim too small for this many row "
                    "blocks (ladder exceeds the first half)");
      util::expects(col_blocks * x_col_ <= d - half,
                    "PositionEncoder: dim too small for this many column "
                    "blocks (ladder exceeds the second half)");
      // Rows flip inside [0, d/2), columns inside [d/2, d) — disjoint
      // regions are what make XOR binding distance-preserving (Fig. 3(b)).
      col_region_begin_ = half;
      build_ladder(row_ladder_, row_blocks, x_row_, 0, half, rng);
      build_ladder(col_ladder_, col_blocks, x_col_, half, d, rng);
      return;
    }
  }
  util::ensures(false, "unhandled PositionEncoding");
}

void PositionEncoder::build_ladder(std::vector<hdc::HyperVector>& ladder,
                                   std::size_t block_count,
                                   std::size_t flip_unit,
                                   std::size_t region_begin,
                                   std::size_t region_end, util::Rng& rng) {
  ladder.reserve(block_count);
  hdc::HyperVector current = hdc::HyperVector::random(config_.dim, rng);
  ladder.push_back(current);
  std::size_t cursor = region_begin;
  for (std::size_t b = 1; b < block_count; ++b) {
    // Flip the next `flip_unit` bits, wrapping inside the region if a
    // degenerate configuration overruns it (the kUniform ablation can).
    std::size_t remaining = flip_unit;
    while (remaining > 0) {
      if (cursor >= region_end) {
        cursor = region_begin;
      }
      const std::size_t run = std::min(remaining, region_end - cursor);
      current.flip_range(cursor, cursor + run);
      cursor += run;
      remaining -= run;
    }
    ladder.push_back(current);
  }
}

const hdc::HyperVector& PositionEncoder::row_hv(std::size_t i) const {
  util::expects(i < config_.rows, "PositionEncoder::row_hv row in range");
  return row_ladder_[row_block(i)];
}

const hdc::HyperVector& PositionEncoder::col_hv(std::size_t j) const {
  util::expects(j < config_.cols, "PositionEncoder::col_hv column in range");
  return col_ladder_[col_block(j)];
}

hdc::HyperVector PositionEncoder::encode(std::size_t i, std::size_t j) const {
  return row_hv(i) ^ col_hv(j);
}

std::pair<std::size_t, std::size_t> PositionEncoder::row_run(
    std::size_t i) const {
  util::expects(config_.encoding != PositionEncoding::kRandom,
                "PositionEncoder::row_run needs a flip-run ladder");
  util::expects(i < config_.rows, "PositionEncoder::row_run row in range");
  return {0, row_block(i) * x_row_};
}

std::pair<std::size_t, std::size_t> PositionEncoder::col_run(
    std::size_t j) const {
  util::expects(config_.encoding != PositionEncoding::kRandom,
                "PositionEncoder::col_run needs a flip-run ladder");
  util::expects(j < config_.cols, "PositionEncoder::col_run column in range");
  return {col_region_begin_, col_region_begin_ + col_block(j) * x_col_};
}

std::size_t PositionEncoder::row_block(std::size_t i) const {
  return i / block_;
}

std::size_t PositionEncoder::col_block(std::size_t j) const {
  return j / block_;
}

}  // namespace seghdc::core
