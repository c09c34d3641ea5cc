#ifndef PERFBENCH_HOSTPROBE_H_
#define PERFBENCH_HOSTPROBE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Measures how fast the host runs while the benchmark runs, so that
/// timings can be given at a reference host speed.
///
/// A shared host's speed drifts by tens of percent over minutes, and the
/// engine's timings follow it: over ten runs of one seed of
/// smartindex_trace, answers per second spread 0.21 (quartile distance over
/// median) as measured and 0.04 once scaled by this probe. The probe times a
/// fixed kernel that does the kinds of work a query does (sorting 100 000
/// integers; formatting, hashing and sorting 6 000 strings; unpacking and
/// filtering 3.2 MB of bit-packed codes) and runs no engine code, so a
/// change to the engine moves the scaled timings as much as the measured
/// ones. It samples at most once per kSampleEveryNs, between queries and
/// outside every timed interval. Speed() is kReferenceMs over the median
/// sample, above 1 on a fast host; rates are divided by it and durations
/// multiplied by it.
class HostProbe {
 public:
  /// About the kernel's median time on the host the bounds were set on.
  static constexpr double kReferenceMs = 14.0;
  static constexpr int64_t kSampleEveryNs = 250'000'000;

  /// Runs the kernel if kSampleEveryNs passed since the last sample.
  void MaybeSample();
  /// Runs the kernel now.
  void Sample();

  size_t samples() const { return samples_ms_.size(); }
  double MedianMs() const;
  double Speed() const;
  /// Host time spent in the kernel so far; timed windows subtract it.
  int64_t spent_ns() const { return spent_ns_; }

 private:
  std::vector<double> samples_ms_;
  int64_t last_ns_ = 0;
  int64_t spent_ns_ = 0;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOSTPROBE_H_
