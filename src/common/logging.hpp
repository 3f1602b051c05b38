// Minimal leveled logger.
//
// The simulator is deterministic and single-threaded, but examples and the
// controller want human-readable narration.  Output goes to a pluggable sink
// so tests can capture it.  Formatting uses printf-style because the library
// must build offline without fmt.

#pragma once

#include <cstdarg>
#include <functional>
#include <string>
#include <string_view>

namespace pam {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

[[nodiscard]] std::string_view to_string(LogLevel level) noexcept;

/// Process-wide logger configuration.  Not thread-safe by design (the
/// simulator is single-threaded); guard externally if ever used from threads.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, std::string_view)>;

  [[nodiscard]] static Logger& instance();

  void set_level(LogLevel level) noexcept { level_ = level; }
  [[nodiscard]] LogLevel level() const noexcept { return level_; }

  /// Replace the output sink (default writes "[LEVEL] message\n" to stderr).
  void set_sink(Sink sink);
  void reset_sink();

  [[nodiscard]] bool enabled(LogLevel level) const noexcept {
    return static_cast<int>(level) >= static_cast<int>(level_);
  }

  void vlogf(LogLevel level, const char* format, std::va_list args);

 private:
  Logger();

  LogLevel level_ = LogLevel::kWarn;
  Sink sink_;
};

// Convenience free functions: pam::log_info("rate %.2f", x);
void log_trace(const char* format, ...) __attribute__((format(printf, 1, 2)));
void log_debug(const char* format, ...) __attribute__((format(printf, 1, 2)));
void log_info(const char* format, ...) __attribute__((format(printf, 1, 2)));
void log_warn(const char* format, ...) __attribute__((format(printf, 1, 2)));
void log_error(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace pam
