#include "hostprobe.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>

#include "spans.h"

namespace perfbench {

namespace {

constexpr size_t kWords = 400000;      // 3.2 MB of input
constexpr size_t kSorted = 100000;     // words sorted per sample
constexpr size_t kKeys = 6000;         // strings formatted per sample
constexpr size_t kDistinctKeys = 3000;
constexpr uint32_t kCodeBits = 13;     // packed codes per word: 4
constexpr uint32_t kCodeLimit = 4000;  // filter on the unpacked codes

/// The kernel's input, one copy per process: xorshift64 from a fixed seed,
/// so every run does the same work.
const std::vector<uint64_t>& Input() {
  static const std::vector<uint64_t> input = [] {
    std::vector<uint64_t> words(kWords);
    uint64_t x = 7;
    for (uint64_t& v : words) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x;
    }
    return words;
  }();
  return input;
}

}  // namespace

void HostProbe::MaybeSample() {
  if (NowNs() - last_ns_ >= kSampleEveryNs) Sample();
}

void HostProbe::Sample() {
  const std::vector<uint64_t>& input = Input();
  const int64_t start = NowNs();
  // Ordering, as in ORDER BY, merges and sorted runs.
  std::vector<uint64_t> sorted(input.begin(), input.begin() + kSorted);
  std::sort(sorted.begin(), sorted.end());
  sink_ += sorted[kSorted / 2];
  // Strings: formatting, hashing into groups and sorting, as in parsing,
  // dictionaries and string group-by.
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  std::unordered_map<std::string, int> groups;
  char buf[40];
  for (size_t i = 0; i < kKeys; ++i) {
    std::snprintf(buf, sizeof(buf), "kw_%zu_%llu", i % kDistinctKeys,
                  static_cast<unsigned long long>(input[i]));
    keys.emplace_back(buf);
    ++groups[keys.back()];
  }
  std::sort(keys.begin(), keys.end());
  sink_ += groups.size() + keys[kKeys / 2].size();
  // Decoding: unpacking bit-packed codes and filtering them.
  uint64_t total = 0;
  for (uint64_t word : input) {
    for (uint32_t k = 0; k < 4; ++k) {
      const uint32_t code = (word >> (k * kCodeBits)) & ((1u << kCodeBits) - 1);
      total += code < kCodeLimit ? code : 0;
    }
  }
  sink_ += total;
  last_ns_ = NowNs();
  spent_ns_ += last_ns_ - start;
  samples_ms_.push_back(static_cast<double>(last_ns_ - start) / 1e6);
}

double HostProbe::MedianMs() const {
  if (samples_ms_.empty()) return kReferenceMs;
  std::vector<double> sorted = samples_ms_;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  return sorted[sorted.size() / 2];
}

double HostProbe::Speed() const { return kReferenceMs / MedianMs(); }

}  // namespace perfbench
