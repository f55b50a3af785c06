#include "src/core/session.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <unordered_map>
#include <vector>

#include "src/core/color_encoder.hpp"
#include "src/core/kmeans.hpp"
#include "src/core/position_encoder.hpp"
#include "src/hdc/fault.hpp"
#include "src/hdc/simd/backend.hpp"
#include "src/imaging/color.hpp"
#include "src/obs/trace.hpp"
#include "src/util/contracts.hpp"
#include "src/util/stopwatch.hpp"

namespace seghdc::core {

namespace {

/// Packs (row block, column block, color triple) into a dedup key.
/// Layout: [block_row:16][block_col:16][c0:8][c1:8][c2:8] = 56 bits.
std::uint64_t make_key(std::size_t block_row, std::size_t block_col,
                       const std::array<std::uint8_t, 3>& color) {
  return (static_cast<std::uint64_t>(block_row) << 40) |
         (static_cast<std::uint64_t>(block_col) << 24) |
         (static_cast<std::uint64_t>(color[0]) << 16) |
         (static_cast<std::uint64_t>(color[1]) << 8) |
         static_cast<std::uint64_t>(color[2]);
}

void validate_image(const img::ImageU8& image) {
  util::expects(image.channels() == 1 || image.channels() == 3,
                "SegHdc supports 1- or 3-channel images");
  util::expects(image.width() > 0 && image.height() > 0,
                "SegHdc needs a non-empty image");
  // Key packing supports 2^16 blocks per axis.
  util::expects(image.width() < 65536 && image.height() < 65536,
                "SegHdc supports images up to 65535x65535");
}

/// Geometry cache key: height/width < 2^16 (validated), channels in
/// {1, 3}.
std::uint64_t geometry_key(const img::ImageU8& image) {
  return (static_cast<std::uint64_t>(image.height()) << 24) |
         (static_cast<std::uint64_t>(image.width()) << 8) |
         static_cast<std::uint64_t>(image.channels());
}

/// Dedup-map reserve sized from an observed unique ratio with 10%
/// headroom, so a slightly busier frame than the last one still avoids
/// mid-scan rehashing; clamped to the pixel count (the true maximum).
std::size_t expected_unique(std::size_t pixels, double unique_ratio) {
  const double estimate =
      unique_ratio * static_cast<double>(pixels) * 1.1 + 16.0;
  return std::min(pixels, static_cast<std::size_t>(estimate));
}

/// Quantisation for the dedup key: map v to the midpoint of its bucket
/// so encoded colors stay centred in the original range.
std::uint8_t quantize_midpoint(std::uint8_t v, std::size_t shift) {
  if (shift == 0) {
    return v;
  }
  const std::uint8_t bucket = static_cast<std::uint8_t>(v >> shift);
  const std::uint32_t mid =
      (static_cast<std::uint32_t>(bucket) << shift) + ((1u << shift) >> 1);
  return static_cast<std::uint8_t>(std::min<std::uint32_t>(mid, 255));
}

/// Band height when SegHdcConfig::tile_rows is 0: one block row at every
/// paper beta (21, 26), and still several rows when blocks are tiny.
constexpr std::size_t kDefaultBandRows = 16;

/// Height of the encode's row bands, cold and stream alike: tile_rows
/// (0 = kDefaultBandRows) rounded up to a whole number of block rows,
/// capped at the image height. A dedup key holds its row block, so
/// bands cut at block boundaries never share a key.
std::size_t band_rows_for(std::size_t tile_rows,
                          const PositionEncoder& position) {
  const std::size_t height = position.config().rows;
  const std::size_t block = position.block_size();
  const std::size_t rows =
      std::min(tile_rows != 0 ? tile_rows : kDefaultBandRows, height);
  // (rows - 1) / block + 1: the ceil-division that cannot wrap.
  return std::min(height, ((rows - 1) / block + 1) * block);
}

/// True when every pixel HV of `config` is a fixed base XOR flip runs:
/// the position ladders flip runs unless they are kRandom, the colour
/// ladder flips prefixes of its channel slices, and no bit error is
/// injected afterwards.
bool flip_run_config(const SegHdcConfig& config) {
  return config.position_encoding != PositionEncoding::kRandom &&
         config.color_encoding == ColorEncoding::kLevelLadder &&
         config.bit_error_rate == 0.0;
}

}  // namespace

/// The immutable encoder state for one image geometry: the position and
/// color item memories, and for flip-run configs the base HV B of the
/// coded points. Construction order matters — the position encoder
/// consumes the seeded RNG stream first, then the color encoder, exactly
/// as the stateless `SegHdc::segment` path always has, so the cached
/// state reproduces its outputs bit for bit. B draws nothing.
struct SegHdcSession::EncoderState {
  PositionEncoder position;
  ColorEncoder color;
  /// row_hv(0) ^ col_hv(0) ^ colour level 0 of every channel, the HV
  /// every coded point is coded against; dimension 0 when the config's
  /// HVs are not flip runs (they are then bound as dense rows).
  hdc::HyperVector coded_base;

  EncoderState(const SegHdcConfig& config, const img::ImageU8& image,
               util::Rng& rng)
      : position(
            PositionEncoderConfig{
                .dim = config.dim,
                .rows = image.height(),
                .cols = image.width(),
                .encoding = config.position_encoding,
                .alpha = config.alpha,
                .beta = config.beta,
                .flip_unit_basis = config.flip_unit_basis,
            },
            rng),
        color(
            ColorEncoderConfig{
                .dim = config.dim,
                .channels = image.channels(),
                .encoding = config.color_encoding,
                .gamma = config.gamma,
            },
            rng) {
    if (flip_run_config(config)) {
      const std::vector<std::uint8_t> level_zero(image.channels(), 0);
      coded_base = position.row_hv(0) ^ position.col_hv(0) ^
                   color.encode(level_zero);
    }
  }

  bool coded() const { return coded_base.dim() != 0; }
};

/// Reusable per-worker arena for encode: the row bands' dedup tables and
/// the unique-ratio reserve hint. The per-image containers are cleared
/// (capacity retained) between calls; no HV is kept, every row is bound
/// from the encoder tables.
struct SegHdcSession::EncodeScratch {
  struct UniqueRef {
    std::size_t x, y;  ///< representative pixel
    std::array<std::uint8_t, 3> color;
  };

  /// One row band of the encode, a whole number of block rows high: its
  /// local dedup table and, per local unique point, its first-occurrence
  /// ref and pixel weight. No dedup key is in two bands, so the band's
  /// points are global IDs offset + local. A stream's bands also keep
  /// what skipping their scan takes: their per-pixel local ids. The
  /// table is a pure function of the band's bytes, so an unchanged
  /// band's table IS its rescan, bit for bit; its rows are bound again
  /// like any other band's.
  struct Band {
    std::unordered_map<std::uint64_t, std::uint32_t> key_to_local;
    std::vector<UniqueRef> refs;
    std::vector<std::uint32_t> weights;
    /// Global ID of local point 0: the unique counts of the bands above.
    std::uint32_t offset = 0;
    /// This encode took the band from its stream cache instead of
    /// scanning it (always false on a cold encode).
    bool reused = false;
    // The stream cache, untouched by cold encodes.
    /// False until the band's table is fully rebuilt (a throw mid-scan
    /// must not leave a half-table eligible for reuse).
    bool valid = false;
    std::vector<std::uint32_t> local_ids;  ///< per band pixel

    void begin_band(std::size_t reserve) {
      key_to_local.clear();
      refs.clear();
      weights.clear();
      key_to_local.reserve(reserve);
    }
  };

  std::vector<Band> bands;
  /// Unique ratio (unique points / pixels) observed on the previous
  /// image through this arena; seeds the dedup-map reserves so low-dedup
  /// images (noise, photos) don't rehash repeatedly mid-scan. Starts at
  /// the old fixed 1/4 heuristic.
  double last_unique_ratio = 0.25;
};

/// Temporal state for one ordered frame stream: its geometry (the band
/// caches live in `scratch`), the previous frame (reuse baseline +
/// replay trigger), the previous result (replay payload), and the
/// previous centroids' majority snapshots (warm K-Means seeds).
struct SegHdcSession::StreamState {
  std::uint64_t geometry = 0;  ///< geometry_key of the stream; 0 = none yet
  img::ImageU8 prev_frame;
  bool has_prev = false;
  std::vector<hdc::HyperVector> prev_centroids;  ///< majority snapshots
  SegmentationResult prev_result;
  bool has_result = false;
  std::size_t frame_index = 0;
  EncodeScratch scratch;
  StreamFrameStats last_stats;

  void reset() {
    geometry = 0;
    prev_frame = img::ImageU8();
    has_prev = false;
    prev_centroids.clear();
    prev_result = SegmentationResult();
    has_result = false;
    frame_index = 0;
    last_stats = StreamFrameStats();
    // The band tables are temporal history and go; the unique-ratio
    // reserve hint stays, it only sizes the next scan's reserves.
    scratch.bands.clear();
  }
};

SegHdcSession::Stream::Stream() : impl_(std::make_unique<StreamState>()) {}
SegHdcSession::Stream::~Stream() = default;
SegHdcSession::Stream::Stream(Stream&&) noexcept = default;
SegHdcSession::Stream& SegHdcSession::Stream::operator=(Stream&&) noexcept =
    default;

void SegHdcSession::Stream::reset() { impl_->reset(); }

const StreamFrameStats& SegHdcSession::Stream::last_stats() const {
  return impl_->last_stats;
}

SegHdcSession::SegHdcSession(const SegHdcConfig& config,
                             const Options& options)
    : config_(config), pool_(options.pool) {
  config_.validate();
  // Kernel-backend override plumbing: a named backend (or "auto") in
  // the config re-points the process-wide dispatch; "" leaves the
  // SEGHDC_KERNEL_BACKEND / auto-detected selection alone. Throws
  // std::invalid_argument for unknown/unavailable names, like the other
  // config validations.
  if (!config_.kernel_backend.empty()) {
    hdc::simd::force_backend(config_.kernel_backend);
  }
  // Tracing opt-in plumbing, same shape as the backend override: the
  // config can force the process-wide tracer on, otherwise SEGHDC_TRACE
  // is consulted (hard error on malformed values). Observational only —
  // results are bit-identical either way.
  obs::apply_trace_config(config_.trace);
}

SegHdcSession::~SegHdcSession() = default;

SegHdcSession::Scratch::Scratch() : impl_(std::make_unique<EncodeScratch>()) {}
SegHdcSession::Scratch::~Scratch() = default;
SegHdcSession::Scratch::Scratch(Scratch&&) noexcept = default;
SegHdcSession::Scratch& SegHdcSession::Scratch::operator=(Scratch&&) noexcept =
    default;

util::ThreadPool& SegHdcSession::pool() const {
  return pool_ != nullptr ? *pool_ : util::ThreadPool::shared();
}

std::size_t SegHdcSession::encoder_states_built() const {
  const std::lock_guard<std::mutex> lock(states_mutex_);
  return states_.size();
}

const SegHdcSession::EncoderState& SegHdcSession::state_for(
    const img::ImageU8& image) const {
  const std::uint64_t key = geometry_key(image);
  {
    const std::lock_guard<std::mutex> lock(states_mutex_);
    const auto it = states_.find(key);
    if (it != states_.end()) {
      return *it->second;
    }
  }
  // Build outside the lock so distinct geometries construct in parallel;
  // a same-geometry race is resolved by try_emplace (one winner, the
  // loser's identical state is discarded).
  util::Rng rng(config_.seed);
  auto built = std::make_unique<EncoderState>(config_, image, rng);
  const std::lock_guard<std::mutex> lock(states_mutex_);
  const auto [it, inserted] = states_.try_emplace(key, std::move(built));
  return *it->second;
}

EncodedImage SegHdcSession::encode(const img::ImageU8& image) const {
  validate_image(image);
  std::unique_lock<std::mutex> lock(scratch_mutex_, std::try_to_lock);
  if (lock.owns_lock()) {
    return encode_impl(image, state_for(image), shared_scratch(),
                       /*bind_rows=*/true);
  }
  EncodeScratch scratch;
  return encode_impl(image, state_for(image), scratch, /*bind_rows=*/true);
}

EncodedImage SegHdcSession::encode(const img::ImageU8& image,
                                   Scratch& scratch) const {
  validate_image(image);
  return encode_impl(image, state_for(image), *scratch.impl_,
                     /*bind_rows=*/true);
}

SegmentationResult SegHdcSession::cluster_and_finalize(
    EncodedImage&& encoded) const {
  util::expects(encoded.width > 0 && encoded.height > 0,
                "cluster_and_finalize needs a non-empty encode");
  util::expects(
      encoded.pixel_to_unique.size() == encoded.width * encoded.height,
      "cluster_and_finalize: pixel_to_unique does not cover the image");
  util::expects((encoded.coded.empty() ? encoded.unique_hvs.dim()
                                        : encoded.coded.dim()) == config_.dim,
                "cluster_and_finalize: encode dim != session config dim");
  return finalize_impl(std::move(encoded));
}

/// The session-owned scratch used by single-image segment()/encode()
/// calls, so a plain `for (image : stream) session.segment(image)` loop
/// reuses its band tables' capacity and unique-ratio reserve hint
/// between frames. Callers must hold scratch_mutex_; concurrent callers
/// that lose the try_lock fall back to a private scratch (identical
/// output, cold reserves).
SegHdcSession::EncodeScratch& SegHdcSession::shared_scratch() const {
  if (!shared_scratch_) {
    shared_scratch_ = std::make_unique<EncodeScratch>();
  }
  return *shared_scratch_;
}

EncodedImage SegHdcSession::encode_impl(const img::ImageU8& image,
                                        const EncoderState& state,
                                        EncodeScratch& scratch,
                                        bool bind_rows,
                                        const StreamState* stream) const {
  const PositionEncoder& position_encoder = state.position;
  const ColorEncoder& color_encoder = state.color;

  EncodedImage encoded;
  encoded.width = image.width();
  encoded.height = image.height();
  encoded.pixel_to_unique.resize(image.pixel_count());

  const std::size_t width = image.width();
  const std::size_t height = image.height();
  const std::size_t channels = image.channels();
  const std::size_t pixel_count = image.pixel_count();
  const std::size_t band_rows =
      band_rows_for(config_.tile_rows, position_encoder);
  const std::size_t band_count = (height + band_rows - 1) / band_rows;
  const bool dedup = config_.deduplicate;
  const std::size_t shift = config_.color_quantization_shift;
  const double unique_ratio = scratch.last_unique_ratio;
  auto& bands = scratch.bands;
  if (bands.size() < band_count) {
    bands.resize(band_count);
  }

  // --- Step 1: scan each row band into its own dedup table, in
  // parallel, counting per-key pixel weights on the way. Band t touches
  // only its arena and its pixels' local ids, which a cold encode writes
  // into its slice of pixel_to_unique and a stream keeps in the band's
  // cache. With dedup off every pixel is its own point (keyed, in
  // effect, by its pixel index, which never repeats), so no key is
  // built and the table is skipped. On a stream, a band whose bytes are
  // unchanged since the previous frame is reused from its cache instead
  // of scanned; an exact byte compare decides, stopping at the first
  // differing byte. ---
  pool().parallel_for(
      0, band_count,
      [&](std::size_t t) {
        obs::SpanScope span("encode_band", "core", "band", t);
        auto& band = bands[t];
        const std::size_t y_begin = t * band_rows;
        const std::size_t y_end = std::min(height, y_begin + band_rows);
        const std::size_t band_pixels = (y_end - y_begin) * width;
        std::uint32_t* local_ids =
            encoded.pixel_to_unique.data() + y_begin * width;
        band.reused = false;
        if (stream != nullptr) {
          const std::size_t byte_begin = y_begin * width * channels;
          const std::size_t byte_count = band_pixels * channels;
          const std::uint8_t* bytes = image.data() + byte_begin;
          band.reused =
              band.valid && stream->has_prev &&
              std::memcmp(bytes, stream->prev_frame.data() + byte_begin,
                          byte_count) == 0;
          span.arg("reused", band.reused ? 1 : 0);
          if (band.reused) {
            return;
          }
          band.valid = false;  // until the scan below completes
          band.local_ids.resize(band_pixels);
          local_ids = band.local_ids.data();
        }
        band.begin_band(dedup ? expected_unique(band_pixels, unique_ratio)
                              : 0);
        for (std::size_t y = y_begin; y < y_end; ++y) {
          for (std::size_t x = 0; x < width; ++x) {
            std::array<std::uint8_t, 3> color{0, 0, 0};
            for (std::size_t c = 0; c < channels; ++c) {
              color[c] = quantize_midpoint(image(x, y, c), shift);
            }
            auto local = static_cast<std::uint32_t>(band.refs.size());
            if (dedup) {
              // kRandom position HVs differ per block index as well, so
              // the same key function applies to every encoding variant.
              const std::uint64_t key =
                  make_key(position_encoder.row_block(y),
                           position_encoder.col_block(x), color);
              local = band.key_to_local.try_emplace(key, local).first->second;
            }
            if (local == band.refs.size()) {  // first occurrence
              band.refs.push_back(EncodeScratch::UniqueRef{x, y, color});
              band.weights.push_back(1);
            } else {
              ++band.weights[local];
            }
            local_ids[(y - y_begin) * width + x] = local;
          }
        }
        if (stream != nullptr) {
          band.valid = true;
        }
      },
      /*grain=*/1);

  // --- Step 2: lay the bands end to end. Every band is a whole number
  // of block rows and every dedup key holds its row block, so no key is
  // in two bands: band t's points are all new, numbered after the bands
  // above it. Each band's locals are in row-major first-occurrence
  // order, so offset + local is exactly the serial row-major scan's ID,
  // whichever bands were scanned or reused, at every thread count. ---
  std::size_t n_unique = 0;
  for (std::size_t t = 0; t < band_count; ++t) {
    auto& band = bands[t];
    band.offset = static_cast<std::uint32_t>(n_unique);
    n_unique += band.refs.size();
    encoded.weights.insert(encoded.weights.end(), band.weights.begin(),
                           band.weights.end());
  }
  // Images are validated non-empty, so pixel_count >= 1 here.
  scratch.last_unique_ratio =
      static_cast<double>(n_unique) / static_cast<double>(pixel_count);
  // Relabel each band's pixels from band-local to global IDs,
  // band-parallel. A cold encode's band 0 is left in place: its offset
  // is 0, so its local ids are already global.
  pool().parallel_for(
      0, band_count,
      [&](std::size_t t) {
        const auto& band = bands[t];
        const std::size_t begin = t * band_rows * width;
        const std::size_t end = std::min(height, (t + 1) * band_rows) * width;
        std::uint32_t* out = encoded.pixel_to_unique.data() + begin;
        const std::uint32_t* local_ids =
            stream != nullptr ? band.local_ids.data() : out;
        if (local_ids == out && band.offset == 0) {
          return;
        }
        for (std::size_t i = 0; i < end - begin; ++i) {
          out[i] = local_ids[i] + band.offset;
        }
      },
      /*grain=*/1);

  // --- Step 3: one pass over the unique points of every band,
  // data-parallel: each point's intensity and its HV, in the forms this
  // encode carries. A flip-run config codes the point: its row, column
  // and one colour run per channel, sorted into endpoints against the
  // state's base HV; that is all segment()'s path clusters. Dense rows
  // are bound when the HVs are not flip runs, or when the caller wants
  // them (the public encode()): row u = row HV ^ column HV ^ one placed
  // color row per channel, the concatenated color HV without building
  // it. A reused band is coded and bound like a scanned one; its reuse
  // only skipped the scan. ---
  const bool coded = state.coded();
  const bool dense = !coded || bind_rows;
  {
    const obs::SpanScope span("encode_bind", "core", "points", n_unique);
    encoded.intensities.resize(n_unique);
    if (coded) {
      encoded.coded =
          hdc::CodedPoints(state.coded_base, 2 * (2 + channels), n_unique);
    }
    if (dense) {
      encoded.unique_hvs = hdc::HvBlock(config_.dim, n_unique);
    }
    const auto bands_end =
        bands.begin() + static_cast<std::ptrdiff_t>(band_count);
    pool().parallel_for(
        0, n_unique,
        [&](std::size_t u) {
          // Every band holds >= 1 point, so offsets strictly increase.
          const auto& band = *std::prev(std::ranges::upper_bound(
              bands.begin(), bands_end, u, {}, &EncodeScratch::Band::offset));
          const auto& ref = band.refs[u - band.offset];
          encoded.intensities[u] =
              channels == 1
                  ? ref.color[0]
                  : img::luma(ref.color[0], ref.color[1], ref.color[2]);
          if (coded) {
            // The colour runs come sorted (each is a prefix of its own
            // channel slice, slices in order); the two position runs
            // are sorted apart (kUniform's overlap), then merged in.
            std::array<std::uint32_t, 4> position;
            std::array<std::uint32_t, 6> colour;
            const auto put = [](auto& out, std::size_t at,
                                std::pair<std::size_t, std::size_t> run) {
              out[at] = static_cast<std::uint32_t>(run.first);
              out[at + 1] = static_cast<std::uint32_t>(run.second);
            };
            put(position, 0, position_encoder.row_run(ref.y));
            put(position, 2, position_encoder.col_run(ref.x));
            for (std::size_t c = 0; c < channels; ++c) {
              put(colour, 2 * c, color_encoder.level_run(c, ref.color[c]));
            }
            std::ranges::sort(position);
            std::ranges::merge(position,
                               std::span(colour).first(2 * channels),
                               encoded.coded.endpoints(u).begin());
          }
          if (dense) {
            const auto row = encoded.unique_hvs.row(u);
            hdc::kernels::xor_words(row,
                                    position_encoder.row_hv(ref.y).words(),
                                    position_encoder.col_hv(ref.x).words());
            for (std::size_t c = 0; c < channels; ++c) {
              hdc::kernels::xor_words(row, row,
                                      color_encoder.placed(c, ref.color[c]));
            }
          }
        },
        /*grain=*/64);
  }
  // One d-element bind per unique point, whether it was coded or bound.
  encoded.ops.bind_xor_bits += n_unique * config_.dim;

  // --- Step 4: fault injection corrupts the image's rows at the
  // configured bit-error rate (models storing them in an approximate
  // memory). It runs over every row in global order, so the sequential
  // fault RNG stream is the same whichever bands were reused. ---
  if (config_.bit_error_rate > 0.0) {
    util::Rng fault_rng(config_.seed ^ 0xFA017ULL);
    for (std::size_t u = 0; u < encoded.unique_hvs.count(); ++u) {
      hdc::inject_bit_flips(encoded.unique_hvs.row(u), config_.dim,
                            config_.bit_error_rate, fault_rng);
    }
  }

  return encoded;
}

SegmentationResult SegHdcSession::segment(const img::ImageU8& image) const {
  validate_image(image);
  std::unique_lock<std::mutex> lock(scratch_mutex_, std::try_to_lock);
  if (lock.owns_lock()) {
    return segment_impl(image, shared_scratch());
  }
  EncodeScratch scratch;
  return segment_impl(image, scratch);
}

SegmentationResult SegHdcSession::segment_impl(const img::ImageU8& image,
                                               EncodeScratch& scratch) const {
  const util::Stopwatch total_watch;
  const util::Stopwatch encode_watch;
  EncodedImage encoded =
      encode_impl(image, state_for(image), scratch, /*bind_rows=*/false);
  const double encode_seconds = encode_watch.seconds();

  SegmentationResult result = finalize_impl(std::move(encoded));
  result.timings.encode_seconds = encode_seconds;
  result.timings.total_seconds = total_watch.seconds();
  return result;
}

SegmentationResult SegHdcSession::finalize_impl(EncodedImage encoded) const {
  return finalize_impl(std::move(encoded), FinalizeOptions{});
}

SegmentationResult SegHdcSession::finalize_impl(
    EncodedImage encoded, const FinalizeOptions& options) const {
  const util::Stopwatch finalize_watch;
  util::Stopwatch phase_watch;

  SegmentationResult result;
  result.clusters = config_.clusters;
  result.unique_points = encoded.point_count();

  phase_watch.reset();
  const HvKMeans kmeans(HvKMeansConfig{
      .clusters = config_.clusters,
      .iterations = config_.iterations,
      .distance = config_.cluster_distance,
      .assign_mode = config_.assign_mode,
      .stop_on_convergence = config_.stop_on_convergence ||
                             options.force_stop_on_convergence,
      .pool = pool_,
  });
  // The coded points when the encode carries them, else the dense rows:
  // the same clustering either way.
  const auto cluster = [&](const auto& points) {
    obs::SpanScope span("kmeans", "core", "unique_points", points.count());
    if (!options.warm_centroids.empty()) {
      // Warm start (stream path): seed from the previous frame's majority
      // centroids — the seed-selection scan is skipped entirely.
      span.arg("warm", 1);
      return kmeans.run_from_centroids(points, encoded.weights,
                                       options.warm_centroids);
    }
    // Initial centroids: pixels with the largest color difference
    // (Section III-④).
    const auto seeds = largest_color_difference_seeds(encoded.intensities,
                                                      config_.clusters);
    return kmeans.run(points, encoded.weights, seeds);
  };
  const bool coded = !encoded.coded.empty();
  HvKMeansResult clustering =
      coded ? cluster(encoded.coded) : cluster(encoded.unique_hvs);
  result.timings.cluster_seconds = phase_watch.seconds();

  if (options.centroids_out != nullptr) {
    options.centroids_out->clear();
    options.centroids_out->reserve(clustering.centroids.size());
    for (const auto& centroid : clustering.centroids) {
      options.centroids_out->push_back(centroid.to_majority());
    }
  }

  // --- Label map + per-cluster pixel counts. ---
  {
    const obs::SpanScope label_span("label_map", "core");
    result.labels = img::LabelMap(encoded.width, encoded.height, 1, 0);
    result.cluster_pixel_counts.assign(config_.clusters, 0);
    for (std::size_t y = 0; y < encoded.height; ++y) {
      for (std::size_t x = 0; x < encoded.width; ++x) {
        const std::uint32_t unique =
            encoded.pixel_to_unique[y * encoded.width + x];
        const std::uint32_t label = clustering.assignment[unique];
        result.labels(x, y) = label;
        ++result.cluster_pixel_counts[label];
      }
    }
  }

  result.ops = encoded.ops + clustering.ops;

  // Optional confidence margins from the final centroids, through the
  // clusterer's own distance on the same point model. Everything in
  // this block — norms, distances, and their op counts — exists only
  // when margins are requested; with compute_margins off the pipeline
  // performs (and reports) zero margin work and result.margins stays
  // empty.
  if (config_.compute_margins) {
    const std::vector<float> unique_margin =
        coded ? cosine_margins(encoded.coded, clustering.centroids, pool_)
              : cosine_margins(encoded.unique_hvs, clustering.centroids,
                               pool_);
    result.margins = img::ImageF32(encoded.width, encoded.height, 1);
    for (std::size_t p = 0; p < encoded.pixel_to_unique.size(); ++p) {
      result.margins.pixels()[p] =
          unique_margin[encoded.pixel_to_unique[p]];
    }
    const auto unique = static_cast<std::uint64_t>(result.unique_points);
    result.ops.popcount_bits += unique * config_.dim;
    result.ops.dot_adds += unique * config_.clusters * config_.dim;
    result.ops.distance_evals += unique * config_.clusters;
  }

  result.moved_per_iteration = std::move(clustering.moved_per_iteration);
  result.iterations_run = clustering.iterations_run;
  result.paper_equivalent_ops = analytic_seghdc_ops(
      encoded.width * encoded.height, config_.dim, config_.clusters,
      config_.iterations);
  // Everything this function did — seeds, K-Means, label map, margins —
  // so stage drivers can compose encode + finalize into a true compute
  // total. cluster_seconds stays K-Means-only, matching the historical
  // phase split.
  result.timings.total_seconds = finalize_watch.seconds();
  return result;
}

StreamFrameResult SegHdcSession::segment_stream(const img::ImageU8& frame,
                                                Stream& stream) const {
  validate_image(frame);
  StreamState& s = *stream.impl_;
  const util::Stopwatch total_watch;

  const std::uint64_t geometry = geometry_key(frame);
  if (s.geometry != geometry) {
    // New stream, reset(), or mid-stream geometry change: drop all
    // temporal state. With no band cache left, the frame below scans
    // every band: the cold encode, on the same bands.
    const std::size_t frame_index = s.frame_index;
    s.reset();
    s.frame_index = frame_index;
    s.geometry = geometry;
  }

  const EncoderState& state = state_for(frame);
  const std::size_t band_rows = band_rows_for(config_.tile_rows,
                                              state.position);
  StreamFrameStats stats;
  stats.frame_index = s.frame_index;
  stats.tiles_total = (frame.height() + band_rows - 1) / band_rows;

  // Replay shortcut: segmentation is a pure function of (config, image),
  // so a frame byte-identical to its predecessor replays the cached
  // result — bit-for-bit equal labels with zero pipeline work.
  if (s.has_result && s.has_prev && frame == s.prev_frame) {
    const obs::SpanScope span("stream_replay", "stream", "frame",
                              s.frame_index);
    stats.warm = true;
    stats.replayed = true;
    stats.tiles_reused = stats.tiles_total;
    SegmentationResult result = s.prev_result;  // copy; cache stays armed
    result.ops = OpCounts{};  // honest: this frame performed no work
    result.timings = SegmentationTimings{};
    result.timings.total_seconds = total_watch.seconds();
    stats.seconds = result.timings.total_seconds;
    s.last_stats = stats;
    ++s.frame_index;
    return StreamFrameResult{std::move(result), stats};
  }

  const util::Stopwatch encode_watch;
  EncodedImage encoded =
      encode_impl(frame, state, s.scratch, /*bind_rows=*/false, &s);
  const double encode_seconds = encode_watch.seconds();
  for (std::size_t t = 0; t < stats.tiles_total; ++t) {
    stats.tiles_reused += s.scratch.bands[t].reused ? 1 : 0;
  }
  stats.tiles_encoded = stats.tiles_total - stats.tiles_reused;

  FinalizeOptions options;
  std::vector<hdc::HyperVector> next_centroids;
  options.centroids_out = &next_centroids;
  if (!s.prev_centroids.empty()) {
    options.warm_centroids = s.prev_centroids;
    options.force_stop_on_convergence = true;
    stats.warm = true;
  }
  SegmentationResult result = finalize_impl(std::move(encoded), options);
  result.timings.encode_seconds = encode_seconds;
  result.timings.total_seconds = total_watch.seconds();
  stats.kmeans_iterations = result.iterations_run;

  s.prev_frame = frame;                          // next frame's baseline
  s.has_prev = true;
  s.prev_centroids = std::move(next_centroids);  // next frame's warm seeds
  s.prev_result = result;                        // next frame's replay
  s.has_result = true;
  stats.seconds = result.timings.total_seconds;
  s.last_stats = stats;
  ++s.frame_index;
  return StreamFrameResult{std::move(result), stats};
}

std::vector<SegmentationResult> SegHdcSession::segment_many(
    std::span<const img::ImageU8> images) const {
  // Collect via the streaming overload: each result is moved into its
  // slot the moment its image completes — no SegmentationResult (label
  // maps, margins, count vectors) is ever copied.
  std::vector<SegmentationResult> results(images.size());
  segment_many(images, [&results](std::size_t i, SegmentationResult&& r) {
    results[i] = std::move(r);
  });
  return results;
}

void SegHdcSession::segment_many(
    std::span<const img::ImageU8> images,
    const std::function<void(std::size_t, SegmentationResult&&)>& sink)
    const {
  if (images.empty()) {
    return;
  }
  // Validate everything and build the encoder state for every distinct
  // geometry up front, so the parallel section below only ever reads the
  // state cache.
  for (const auto& image : images) {
    validate_image(image);
    state_for(image);
  }

  util::ThreadPool& workers_pool = pool();
  const std::size_t workers =
      std::min(images.size(), workers_pool.thread_count());
  std::atomic<std::size_t> next{0};
  std::mutex sink_mutex;
  workers_pool.parallel_for(
      0, workers,
      [&](std::size_t) {
        // One scratch arena per worker; image-level sharding is the
        // parallelism, so the per-image inner loops run serially on this
        // worker instead of re-entering the pool.
        EncodeScratch scratch;
        const util::SerialScope serial;
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= images.size()) {
            return;
          }
          SegmentationResult result = segment_impl(images[i], scratch);
          // Hand off under the sink mutex so callers get serialised
          // invocations; the worker holds no result memory afterwards.
          const std::lock_guard<std::mutex> lock(sink_mutex);
          sink(i, std::move(result));
        }
      },
      /*grain=*/1);
}

}  // namespace seghdc::core
