#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic clock in nanoseconds.
int64_t NowNs();

/// One timed call into a layer of the engine.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   ///< index of the enclosing span, -1 for a root
  int64_t query_id = -1; ///< spans of one query (or ingest step) share it
};

/// Keeps spans in memory; they are written out once, when the run ends.
/// A disabled recorder (warm-up) records nothing and returns id -1.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  int32_t Begin(const char* name, int32_t parent, int64_t query_id);
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration (ns) of the spans with `name`, per query id.
  std::map<int64_t, int64_t> SumByQuery(const std::string& name) const;
  /// Durations (ns) of every span with `name`.
  std::vector<int64_t> Durations(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON (complete "X" events,
  /// microsecond timestamps relative to the first span).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Begins a span on construction and ends it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int32_t parent,
             int64_t query_id)
      : recorder_(recorder),
        id_(recorder->Begin(name, parent, query_id)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
