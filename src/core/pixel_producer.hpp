// Pixel HV producer (paper Section III-③, Fig. 5).
//
// Binds a position HV and a color HV into the final pixel HV with
// element-wise XOR. XOR is the right associator because a bit flipped in
// either input flips the same bit of the output: position distance and
// color distance ADD in the bound vector whenever their flip sites
// differ (Fig. 5(c)), and only partially cancel on the rare coinciding
// sites (Fig. 5(d)). Element-wise multiplication would zero out distance
// information instead (paper Section III-①).
#ifndef SEGHDC_CORE_PIXEL_PRODUCER_HPP
#define SEGHDC_CORE_PIXEL_PRODUCER_HPP

#include "src/core/op_counts.hpp"
#include "src/hdc/hypervector.hpp"

namespace seghdc::core {

/// Stateless binder with op accounting. This is the REFERENCE binder
/// (one HyperVector per call) used by tests and ablations; the pipeline
/// itself binds straight into HvBlock rows from the encoder tables via
/// kernels::xor_words (see SegHdcSession::encode_impl, step 3) and
/// accounts the same bind_xor_bits there, d per unique point.
class PixelProducer {
 public:
  /// pixel = position XOR color. Dimensions must match.
  hdc::HyperVector produce(const hdc::HyperVector& position,
                           const hdc::HyperVector& color) const;

  /// Cumulative work done by this producer (element XORs).
  const OpCounts& ops() const { return ops_; }
  void reset_ops() { ops_ = OpCounts{}; }

 private:
  mutable OpCounts ops_;
};

}  // namespace seghdc::core

#endif  // SEGHDC_CORE_PIXEL_PRODUCER_HPP
