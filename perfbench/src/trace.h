#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are opened and closed
// by the harness around its own calls into each culevo module (one thread,
// strictly nested), kept in memory, and written out when the run ends.
// A disabled tracer records nothing, so the same replay code gives the
// untraced baseline that the tracing overhead is measured against.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;          ///< Index of the enclosing span, -1 for a root.
  uint64_t request_id = 0;  ///< Spans of one request share it; 0 = none.
};

/// Totals of every span with one name.
struct SpanTotals {
  int64_t count = 0;
  double total_ms = 0.0;  ///< Summed durations.
  double self_ms = 0.0;   ///< Summed durations minus child-covered time.
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int Begin(const char* name, uint64_t request_id = 0);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name totals. Spans nest on one thread, so the time a span's
  /// children cover is the sum of their durations.
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes every span as one tab-separated line: name, start_us, end_us,
  /// parent index, request id (times relative to the first span).
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request_id = 0)
      : tracer_(tracer), index_(tracer->Begin(name, request_id)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
