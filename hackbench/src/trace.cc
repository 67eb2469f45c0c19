#include "hackbench/src/trace.h"

#include <chrono>
#include <cstdio>
#include <string_view>

namespace hackbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t SpanRecorder::Begin(const char* name, uint32_t parent) {
  uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
  spans_.push_back(Span{id, parent, name, NowNs(), -1});
  return id;
}

void SpanRecorder::End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }

int64_t SpanRecorder::ChildTotalNs(uint32_t parent, const char* name) const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.parent == parent && s.end_ns >= 0 &&
        std::string_view(s.name) == name) {
      total += s.end_ns - s.start_ns;
    }
  }
  return total;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"run\": \"%s\", \"id\": %u, \"parent\": %u, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 run_id_.c_str(), s.id, s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace hackbench
