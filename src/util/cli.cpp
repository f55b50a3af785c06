#include "src/util/cli.hpp"

#include <algorithm>
#include <stdexcept>

namespace seghdc::util {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

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

}  // namespace seghdc::util
