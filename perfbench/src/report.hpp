// What one benchmark run reports: named metrics with units, the
// operation counts, the output-check outcome and free-form details
// (provenance, per-rate breakdowns), rendered as the JSON lines the
// benchmark prints.
#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Renders `value` as a JSON number (non-finite values become 0, which
/// JSON cannot represent otherwise) with all significant digits.
std::string json_number(double value);
std::string json_string(const std::string& value);

/// Builds one JSON object incrementally: `add` takes an already rendered
/// JSON value.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& rendered);
  JsonObject& num(const std::string& key, double value) {
    return add(key, json_number(value));
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return add(key, json_string(value));
  }
  std::string render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Run-level output checks that failed (pinned hash, mIoU floor,
  /// layer split, generator lag); any entry makes the run incorrect.
  std::vector<std::string> problems;
  JsonObject details;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void problem(const std::string& what) { problems.push_back(what); }
  bool correct() const { return failed == 0 && problems.empty(); }

  /// Prints one "name value unit" line per metric, the details object
  /// and, last, the result line: {"correct", "attempted", "failed",
  /// "metrics"} with the end-to-end metrics (trace off) or the
  /// per-layer metrics (trace on).
  void print(bool traced) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_HPP
