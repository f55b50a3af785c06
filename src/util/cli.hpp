// Minimal command-line option parser shared by the bench harness and the
// examples. Supports `--name value`, `--name=value`, and boolean flags.
#ifndef SEGHDC_UTIL_CLI_HPP
#define SEGHDC_UTIL_CLI_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace seghdc::util {

enum class Digits { kOk, kMalformed, kOverflow };

/// Parses a non-empty run of decimal digits into `value`, stopping at
/// the first non-digit (kMalformed: signs and whitespace included) or
/// the first digit that would overflow size_t (kOverflow); `value` is
/// meaningful only on kOk. The one digit grammar behind the size lists
/// and `WxH` specs.
Digits parse_digits(std::string_view token, std::size_t& value);

/// Parsed command line. Unknown options are collected rather than rejected
/// so a caller can forward them; call `reject_unknown()` to enforce strict
/// parsing. A bare `--` ends option parsing: every later token is
/// positional, even ones starting with `--`.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True when `--name` was present (with or without a value).
  bool has(const std::string& name) const;

  /// String value of `--name`, or `fallback` if absent.
  std::string get(const std::string& name, const std::string& fallback) const;

  /// Integer value of `--name`, or `fallback` if absent. Throws
  /// std::invalid_argument when present but not parseable — including
  /// when present with an empty value (`--name --other` parses as two
  /// flags, so the swallowed value is a hard error here, not a silent
  /// fallback).
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

  /// Floating-point value of `--name`, or `fallback` if absent. Same
  /// empty-value hard error as get_int.
  double get_double(const std::string& name, double fallback) const;

  /// Boolean flag: present without value, or with value in
  /// {1,true,yes,on} / {0,false,no,off}.
  bool get_flag(const std::string& name, bool fallback = false) const;

  /// Positional arguments (everything not starting with `--`).
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

  /// Throws std::invalid_argument when any parsed option is not in
  /// `known` — call after all get() calls with the full option list.
  void reject_unknown(const std::vector<std::string>& known) const;

  /// Parses a comma/space/tab-separated size list ("1,2,4"). Zeros are
  /// legal when `allow_zero` (e.g. tile-rows/queue lists use 0 to mean
  /// auto/unbounded) and a hard error otherwise (thread lists). Shared
  /// by the bench sweep flags. Malformed tokens ("4,x,8") and values
  /// overflowing size_t throw std::invalid_argument — a sweep must run
  /// exactly the list it was given, never a silently filtered one.
  static std::vector<std::size_t> parse_size_list(const std::string& spec,
                                                  bool allow_zero = true);

  /// Width and height parsed from a `WxH` spec ("320x240").
  struct Size2 {
    std::size_t width = 0;
    std::size_t height = 0;
  };

  /// Parses an image-size spec `WxH`: exactly two positive decimal
  /// integers joined by one 'x'. Anything else ("320x", "x240", "0x240",
  /// "320x240x3", "320,240", a side overflowing size_t) throws
  /// std::invalid_argument naming the spec and what is wrong with it.
  static Size2 parse_wxh(const std::string& spec);

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace seghdc::util

#endif  // SEGHDC_UTIL_CLI_HPP
