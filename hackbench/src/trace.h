// In-memory span recorder for the traced run. A span is a named interval
// of host time with a parent; every span of one benchmark run carries the
// same run id. Spans are only recorded by the benchmark's own files, around
// the calls they make into a layer — the simulator has no tracing.
#ifndef HACKBENCH_SRC_TRACE_H_
#define HACKBENCH_SRC_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hackbench {

// Host monotonic clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

struct Span {
  uint32_t id;      // 1-based; 0 is "no parent"
  uint32_t parent;
  const char* name;  // a string literal
  int64_t start_ns;
  int64_t end_ns;    // -1 while open
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id) : run_id_(std::move(run_id)) {}

  uint32_t Begin(const char* name, uint32_t parent);
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& run_id() const { return run_id_; }

  // Sum of closed span durations named `name` that are direct children of
  // `parent`.
  int64_t ChildTotalNs(uint32_t parent, const char* name) const;

  // Writes every span as one JSON object per line. Returns false when the
  // file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::string run_id_;
  std::vector<Span> spans_;
};

// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, uint32_t parent)
      : rec_(rec), id_(rec.Begin(name, parent)) {}
  ~ScopedSpan() { rec_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  uint32_t id_;
};

}  // namespace hackbench

#endif  // HACKBENCH_SRC_TRACE_H_
