#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanRecorder::Begin(const char* name, int32_t parent,
                            int64_t query_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.query_id = query_id;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

std::map<int64_t, int64_t> SpanRecorder::SumByQuery(
    const std::string& name) const {
  std::map<int64_t, int64_t> sums;
  for (const Span& span : spans_) {
    if (span.name == name) sums[span.query_id] += span.end_ns - span.start_ns;
  }
  return sums;
}

std::vector<int64_t> SpanRecorder::Durations(const std::string& name) const {
  std::vector<int64_t> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_ns - span.start_ns);
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"query\":%lld}}%s\n",
                 s.name.c_str(), static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<long long>(s.query_id),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
