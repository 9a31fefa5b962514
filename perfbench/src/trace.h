// Timing primitives of the benchmark: a monotonic clock, an in-memory
// span recorder, span self-time arithmetic, percentiles, and an
// FNV-1a digest of program outputs.
//
// Spans are recorded only from the benchmark's own files, around each
// call it makes into a module's public functions. They stay in memory
// and are written out once, after the run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

struct Span {
  const char* name{""};  ///< static string: "fleet.step", "policy.decide", ...
  double start_s{0.0};
  double end_s{0.0};
  std::int32_t parent{-1};  ///< index of the enclosing span, -1 at top level
  std::uint64_t op{0};      ///< operation (pass, batch, trial) the span belongs to

  [[nodiscard]] double duration_s() const noexcept { return end_s - start_s; }
};

/// Single-threaded span recorder. Disabled, every call is a no-op, so
/// the untraced run pays one branch per would-be span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its index (-1
  /// when disabled). Spans close innermost first.
  int open(const char* name, std::uint64_t op);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Durations [s] of every closed span with this name, in record order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  /// Writes one JSON object per span (name, start, end, parent, op, self).
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the parent).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(const std::vector<double>& values);
[[nodiscard]] double mean(const std::vector<double>& values);
/// Largest value (0 when empty): the fastest of a run's pass rates.
[[nodiscard]] double best_rate(const std::vector<double>& rates);

/// The highest of p50, p90, p99, p99.9, p99.99 that leaves at least ten
/// samples beyond it. `pct` is 0 when the sample is too small for p50.
struct TailPercentile {
  double pct{0.0};
  double value{0.0};
  std::size_t samples{0};
};
[[nodiscard]] TailPercentile highest_tail(const std::vector<double>& values);
/// Samples strictly beyond percentile `pct` of an n-sample set.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double pct);

/// FNV-1a 64 over exact bit patterns, so two outputs digest equal only
/// when every bit agrees.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) noexcept {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof v); }
  void f64(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) noexcept { bytes(s.data(), s.size()); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

}  // namespace perfbench
