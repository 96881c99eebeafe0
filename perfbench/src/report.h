#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

/// Everything one benchmark run reports. `end_to_end` is filled by the
/// untraced run and `per_layer` by the traced one; `info` holds the
/// supporting figures that are printed but are not gated metrics.
struct Report {
  std::map<std::string, MetricValue> end_to_end;
  std::map<std::string, MetricValue> per_layer;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> mismatches;  ///< Output checks that failed.
  /// End-to-end figures printed beside the gated ones but left out of the
  /// result line (see BENCHMARK.json for which are gated, and why not
  /// these).
  std::map<std::string, MetricValue> ungated;
  int64_t attempted = 0;
  int64_t failed = 0;

  void EndToEnd(const std::string& name, double value, const char* unit) {
    end_to_end[name] = MetricValue{value, unit};
  }
  void Ungated(const std::string& name, double value, const char* unit) {
    ungated[name] = MetricValue{value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = MetricValue{value, unit};
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void Mismatch(const std::string& what) { mismatches.push_back(what); }
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
