#include "common/logging.hpp"

#include <cstdio>
#include <vector>

namespace pam {

std::string_view to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

Logger::Logger() { reset_sink(); }

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

void Logger::set_sink(Sink sink) { sink_ = std::move(sink); }

void Logger::reset_sink() {
  sink_ = [](LogLevel level, std::string_view message) {
    std::fprintf(stderr, "[%.*s] %.*s\n",
                 static_cast<int>(to_string(level).size()), to_string(level).data(),
                 static_cast<int>(message.size()), message.data());
  };
}

void Logger::vlogf(LogLevel level, const char* format, std::va_list args) {
  if (!enabled(level)) {
    return;
  }
  std::va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  if (needed < 0) {
    return;
  }
  std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
  std::vsnprintf(buf.data(), buf.size(), format, args);
  sink_(level, std::string_view{buf.data(), static_cast<std::size_t>(needed)});
}

#define PAM_DEFINE_LOG_FN(name, level)                  \
  void name(const char* format, ...) {                  \
    std::va_list args;                                  \
    va_start(args, format);                             \
    Logger::instance().vlogf(level, format, args);      \
    va_end(args);                                       \
  }

PAM_DEFINE_LOG_FN(log_trace, LogLevel::kTrace)
PAM_DEFINE_LOG_FN(log_debug, LogLevel::kDebug)
PAM_DEFINE_LOG_FN(log_info, LogLevel::kInfo)
PAM_DEFINE_LOG_FN(log_warn, LogLevel::kWarn)
PAM_DEFINE_LOG_FN(log_error, LogLevel::kError)

#undef PAM_DEFINE_LOG_FN

}  // namespace pam
