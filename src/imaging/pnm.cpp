#include "src/imaging/pnm.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/util/contracts.hpp"

namespace seghdc::img {

namespace {

void write_binary(const ImageU8& image, const std::string& path,
                  const char* magic) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_pnm: cannot open " + path);
  }
  out << magic << '\n'
      << image.width() << ' ' << image.height() << "\n255\n";
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  if (!out) {
    throw std::runtime_error("write_pnm: short write to " + path);
  }
}

/// Reads the next whitespace/comment-delimited token. A `#` starts a
/// comment running to end of line and acts as a token DELIMITER, like
/// netpbm's own parser: "2#note\n55" is the tokens "2" then "55", never
/// the joined "255". Comments are only recognised here, i.e. between
/// header tokens — a binary raster starts immediately after the single
/// whitespace byte terminating the maxval token, so a 0x23 ('#') there
/// is pixel data, never a comment (pinned by test).
std::string next_token(std::istream& in) {
  std::string token;
  for (;;) {
    const int ch = in.get();
    if (ch == EOF) {
      break;
    }
    if (ch == '#') {  // comment to end of line, delimits any open token
      std::string skip;
      std::getline(in, skip);
      if (!token.empty()) {
        break;
      }
      continue;
    }
    if (std::isspace(ch) != 0) {
      if (!token.empty()) {
        break;
      }
      continue;
    }
    token.push_back(static_cast<char>(ch));
  }
  return token;
}

/// Strict non-negative integer parse with no silent fallback: every
/// character must be a digit (std::stoull would accept "64x" as 64 and
/// "-1" as a wrapped huge value) and overflow is a hard error, so a
/// malformed header fails with an honest message instead of a
/// misleading downstream one.
std::size_t next_size(std::istream& in, const char* what) {
  const std::string token = next_token(in);
  if (token.empty()) {
    throw std::runtime_error(std::string("read_pnm: missing ") + what);
  }
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      throw std::runtime_error(std::string("read_pnm: bad ") + what + " '" +
                               token + "' (digits only)");
    }
    const auto digit = static_cast<std::size_t>(c - '0');
    if (value > (kMax - digit) / 10) {
      throw std::runtime_error(std::string("read_pnm: bad ") + what + " '" +
                               token + "' (overflows size_t)");
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

void write_pgm(const ImageU8& image, const std::string& path) {
  util::expects(image.channels() == 1, "write_pgm requires 1 channel");
  write_binary(image, path, "P5");
}

void write_ppm(const ImageU8& image, const std::string& path) {
  util::expects(image.channels() == 3, "write_ppm requires 3 channels");
  write_binary(image, path, "P6");
}

void write_pnm(const ImageU8& image, const std::string& path) {
  if (image.channels() == 1) {
    write_pgm(image, path);
  } else if (image.channels() == 3) {
    write_ppm(image, path);
  } else {
    throw std::invalid_argument("write_pnm supports 1 or 3 channels");
  }
}

ImageU8 read_pnm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("read_pnm: cannot open " + path);
  }
  const std::string magic = next_token(in);
  std::size_t channels = 0;
  bool ascii = false;
  if (magic == "P2") {
    channels = 1;
    ascii = true;
  } else if (magic == "P3") {
    channels = 3;
    ascii = true;
  } else if (magic == "P5") {
    channels = 1;
  } else if (magic == "P6") {
    channels = 3;
  } else {
    throw std::runtime_error("read_pnm: unsupported magic '" + magic + "'");
  }

  const std::size_t width = next_size(in, "width");
  const std::size_t height = next_size(in, "height");
  const std::size_t maxval = next_size(in, "maxval");
  if (width == 0 || height == 0) {
    throw std::runtime_error("read_pnm: zero image dimensions");
  }
  if (maxval == 0 || maxval > 255) {
    throw std::runtime_error("read_pnm: unsupported maxval " +
                             std::to_string(maxval));
  }
  // Allocation guard: width * height * channels must not wrap (a wrapped
  // product would allocate a tiny buffer and then index past it), and an
  // absurd-but-unwrapped header must fail with an honest message instead
  // of whatever std::bad_alloc the allocator feels like throwing.
  constexpr std::size_t kMaxBytes = std::size_t{1} << 31;  // 2 GiB
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (height > kMax / width || width * height > kMax / channels) {
    throw std::runtime_error("read_pnm: image dimensions " +
                             std::to_string(width) + "x" +
                             std::to_string(height) + " overflow size_t");
  }
  if (width * height * channels > kMaxBytes) {
    throw std::runtime_error(
        "read_pnm: image " + std::to_string(width) + "x" +
        std::to_string(height) + "x" + std::to_string(channels) +
        " exceeds the 2 GiB loader limit");
  }

  ImageU8 image(width, height, channels);
  if (ascii) {
    for (std::size_t i = 0; i < image.size(); ++i) {
      const std::size_t value = next_size(in, "pixel value");
      if (value > maxval) {
        throw std::runtime_error("read_pnm: pixel value exceeds maxval");
      }
      image.pixels()[i] = static_cast<std::uint8_t>(value);
    }
  } else {
    in.read(reinterpret_cast<char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
    if (in.gcount() != static_cast<std::streamsize>(image.size())) {
      throw std::runtime_error("read_pnm: truncated pixel data in " + path);
    }
  }
  return image;
}

}  // namespace seghdc::img
