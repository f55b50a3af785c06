#include "src/util/cli.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace seghdc::util {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

Digits parse_digits(std::string_view token, std::size_t& value) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (token.empty()) {
    return Digits::kMalformed;
  }
  value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      return Digits::kMalformed;
    }
    const auto digit = static_cast<std::size_t>(c - '0');
    if (value > (kMax - digit) / 10) {
      return Digits::kOverflow;
    }
    value = value * 10 + digit;
  }
  return Digits::kOk;
}

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) {
    program_ = argv[0];
  }
  bool options_ended = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--" && !options_ended) {
      // End-of-options sentinel: everything after it is positional, so
      // file names starting with "--" stay representable.
      options_ended = true;
      continue;
    }
    if (options_ended || arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not itself an option.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[i + 1];
      ++i;
    } else {
      options_[body] = "";  // bare flag
    }
  }
}

bool Cli::has(const std::string& name) const {
  return options_.count(name) != 0;
}

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) {
    return fallback;
  }
  if (it->second.empty()) {
    // A bare `--name` read through a value getter is almost always a
    // swallowed value: `--name --other ...` parses as two flags.
    throw std::invalid_argument(
        "--" + name + " expects an integer value but none was given "
        "(a following --option? use --" + name + "=value)");
  }
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(it->second, &used);
    if (used != it->second.size()) {
      throw std::invalid_argument("trailing characters");
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " expects an integer, got '" +
                                it->second + "'");
  }
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) {
    return fallback;
  }
  if (it->second.empty()) {
    throw std::invalid_argument(
        "--" + name + " expects a numeric value but none was given "
        "(a following --option? use --" + name + "=value)");
  }
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) {
      throw std::invalid_argument("trailing characters");
    }
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " expects a number, got '" +
                                it->second + "'");
  }
}

bool Cli::get_flag(const std::string& name, bool fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end()) {
    return fallback;
  }
  const std::string value = lower(it->second);
  if (value.empty() || value == "1" || value == "true" || value == "yes" ||
      value == "on") {
    return true;
  }
  if (value == "0" || value == "false" || value == "no" || value == "off") {
    return false;
  }
  throw std::invalid_argument("--" + name + " expects a boolean, got '" +
                              it->second + "'");
}

void Cli::reject_unknown(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : options_) {
    (void)value;
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw std::invalid_argument("unknown option --" + name);
    }
  }
}

std::vector<std::size_t> Cli::parse_size_list(const std::string& spec,
                                              bool allow_zero) {
  // Malformed tokens and overflow are hard errors, matching the
  // no-silent-fallback convention of the forced knobs
  // (SEGHDC_KERNEL_BACKEND, SEGHDC_ASSIGN_MODE): a sweep list that
  // quietly dropped "x" from "4,x,8" would run a different sweep than
  // the one the caller asked for.
  std::vector<std::size_t> values;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = begin;
    while (end < spec.size() && spec[end] != ',' && spec[end] != ' ' &&
           spec[end] != '\t') {
      ++end;
    }
    if (end > begin) {
      const std::string token = spec.substr(begin, end - begin);
      std::size_t value = 0;
      const Digits status = parse_digits(token, value);
      if (status == Digits::kMalformed) {
        throw std::invalid_argument("size list '" + spec +
                                    "' contains malformed token '" + token +
                                    "' (digits only)");
      }
      if (status == Digits::kOverflow) {
        throw std::invalid_argument("size list '" + spec + "' token '" +
                                    token + "' overflows size_t");
      }
      if (value == 0 && !allow_zero) {
        throw std::invalid_argument("size list '" + spec +
                                    "' contains '0' where zero is not "
                                    "a legal value");
      }
      values.push_back(value);
    }
    begin = end + 1;
  }
  return values;
}

Cli::Size2 Cli::parse_wxh(const std::string& spec) {
  // A size list cannot carry this: its parser treats 'x' as a malformed
  // token, and "320,240" would silently pass as two list entries.
  const std::size_t x = spec.find('x');
  if (x == std::string::npos || spec.find('x', x + 1) != std::string::npos) {
    throw std::invalid_argument("size '" + spec +
                                "' must be WxH with exactly one 'x' "
                                "(e.g. 320x240)");
  }
  const auto side = [&](std::string_view token, const std::string& name) {
    if (token.empty()) {
      throw std::invalid_argument("size '" + spec + "' has no " + name +
                                  " (expected WxH, e.g. 320x240)");
    }
    std::size_t value = 0;
    const Digits status = parse_digits(token, value);
    if (status == Digits::kMalformed) {
      throw std::invalid_argument("size '" + spec + "' " + name + " '" +
                                  std::string(token) +
                                  "' is not a decimal integer");
    }
    if (status == Digits::kOverflow) {
      throw std::invalid_argument("size '" + spec + "' " + name + " '" +
                                  std::string(token) + "' overflows size_t");
    }
    if (value == 0) {
      throw std::invalid_argument("size '" + spec + "' " + name +
                                  " must be positive");
    }
    return value;
  };
  const std::string_view view(spec);
  return {side(view.substr(0, x), "width"), side(view.substr(x + 1), "height")};
}

}  // namespace seghdc::util
