#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.12g", value);
  return buffer;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::add(const std::string& key, const std::string& rendered) {
  fields_.emplace_back(key, rendered);
  return *this;
}

std::string JsonObject::render() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json_string(fields_[i].first) << ": "
        << fields_[i].second;
  }
  out << "}";
  return out.str();
}

void Report::print(bool traced) const {
  const auto& reported = traced ? per_layer : end_to_end;
  for (const auto& metric : reported) {
    std::printf("metric %-28s %16s %s\n", metric.name.c_str(),
                json_number(metric.value).c_str(), metric.unit.c_str());
  }
  for (const auto& what : problems) {
    std::printf("check failed: %s\n", what.c_str());
  }
  JsonObject metrics;
  for (const auto& metric : reported) {
    metrics.add(metric.name, JsonObject()
                                 .num("value", metric.value)
                                 .str("unit", metric.unit)
                                 .render());
  }
  std::printf("%s\n", JsonObject().add("details", details.render()).render().c_str());
  std::printf("%s\n", JsonObject()
                          .add("correct", correct() ? "true" : "false")
                          .num("attempted", static_cast<double>(attempted))
                          .num("failed", static_cast<double>(failed))
                          .add("metrics", metrics.render())
                          .render()
                          .c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
