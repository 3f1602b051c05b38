// Measurement helpers shared by the benchmark: host-time clocks, robust
// statistics, the report digest, the heap-allocation counter and the
// in-memory span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Arithmetic mean of `v`; 0 if empty.
[[nodiscard]] double mean(const std::vector<double>& v);

/// Interquartile mean of `v`: the mean of its middle half (all of it below
/// four values); 0 if empty.  The end-to-end host times use it.  A shared
/// host alternates between fast and slow phases a few milliseconds long, so
/// short samples fall into two clusters: a median jumps from one to the
/// other as the share of slow phases crosses one half, while this mean
/// moves with that share smoothly and still ignores outliers.
[[nodiscard]] double iq_mean(std::vector<double> v);

/// Median of `v` (mean of the two middle values for an even count); 0 if empty.
[[nodiscard]] double median(std::vector<double> v);

/// Linear-interpolated quantile q in [0, 1] of `v`; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Lower-case hex SHA-256 of `data` (FIPS 180-4).
[[nodiscard]] std::string sha256_hex(std::string_view data);

/// Heap allocations seen by the replaced global operator new
/// (alloc_counter.cpp) while counting is switched on.
struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Counting is off by default, so untraced runs pay one relaxed load per
/// allocation and nothing else.
void set_alloc_counting(bool on);
[[nodiscard]] AllocCount alloc_count();

/// Spreads the iterations of a single-threaded run over every CPU the
/// process may use: iteration i runs on the (i mod n)-th of them.  The cores
/// of a shared host differ in speed, so a run pinned by chance to one core
/// would measure that core; a rotating run samples every core alike.
class CpuRotation {
 public:
  CpuRotation();
  /// Pins the calling thread to the CPU of iteration `i`.
  void pin(std::size_t i) const;
  /// Lets the calling thread run on every CPU again.
  void release() const;

 private:
  std::vector<int> cpus_;
};

/// Host-speed probe: a fixed piece of work (a sort that stays in cache and
/// a pointer chase through 16 MiB) timed between the iterations of a run.
/// The host's slow phases, lasting from milliseconds to minutes, slow the
/// probe and the simulator alike, so scaling a run's host times by
/// kProbeNominalS / (the probe's time in that run) cancels most of them.
/// The probe is the benchmark's own code: a change to the simulator leaves
/// it as it is.
class SpeedProbe {
 public:
  /// Typical probe time within a run on the host the benchmark was tuned
  /// on, so that the scale there is about 1.
  static constexpr double kProbeNominalS = 0.010;

  SpeedProbe();
  /// Times the probe once and keeps the time.
  void sample();
  /// kProbeNominalS / interquartile mean of the probe times (1 with none).
  [[nodiscard]] double scale() const;
  [[nodiscard]] double probe_s() const;

 private:
  std::vector<std::uint32_t> ring_;  ///< one random cycle over every slot
  std::vector<std::uint64_t> keys_;
  std::vector<double> samples_;
};

/// One timed call into a layer, recorded from the benchmark's own code.
struct Span {
  const char* name = "";  ///< a string literal
  double start_s = 0.0;  ///< since the log was created
  double end_s = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 at top level
};

/// Spans kept in memory and written out once, when the benchmark ends.
/// Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int open(const char* name);
  void close(int index);
  /// One JSON object per line: {"name", "start_s", "end_s", "parent"}.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log), index_(log.open(name)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace perfbench
