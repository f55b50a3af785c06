// Minimal command-line option parser shared by the bench harness and the
// examples. Supports `--name value`, `--name=value`, and boolean flags.
#ifndef SEGHDC_UTIL_CLI_HPP
#define SEGHDC_UTIL_CLI_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace seghdc::util {

/// Parsed command line. Unknown options are collected rather than rejected
/// so a caller can forward them; call `reject_unknown()` to enforce strict
/// parsing. A bare `--` ends option parsing: every later token is
/// positional, even ones starting with `--`.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

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

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace seghdc::util

#endif  // SEGHDC_UTIL_CLI_HPP
