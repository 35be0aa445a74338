// Named metrics with units, printed as text lines and as the final JSON
// result line.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< source: host-measured / modelled / program counter
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note) {
    metrics_.push_back(
        Metric{std::move(name), value, std::move(unit), std::move(note)});
  }

  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  /// One "metric <name> <value> <unit>  # <note>" line each.
  void PrintText() const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-34s %14.6g %-8s # %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
  }

  /// The result line: `names` selects (and orders) the metrics it carries.
  /// Returns false when one of them was never added.
  bool PrintJson(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::string>& names) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const std::string& n : names) {
      const Metric* m = Find(n);
      if (m == nullptr) {
        std::fprintf(stderr, "metric %s was not measured\n", n.c_str());
        return false;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", m->value);
      if (!first) out += ", ";
      first = false;
      out += "\"" + n + "\": {\"value\": " + buf + ", \"unit\": \"" + m->unit +
             "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return true;
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
