// Lightweight leveled logging for the PathRank library.
//
// Usage:
//   PR_LOG_INFO << "trained epoch " << epoch << " loss=" << loss;
//
// The log level is controlled globally (SetLogLevel) or via the
// PATHRANK_LOG_LEVEL environment variable (trace|debug|info|warn|error|off),
// read once at startup.
#pragma once

#include <sstream>
#include <string>

namespace pathrank {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Sets the global log level. Thread-compatible (call before logging starts).
void SetLogLevel(LogLevel level);

/// Returns the current global log level.
LogLevel GetLogLevel();

/// Parses a level name ("info", "debug", ...). Unknown names map to kInfo.
LogLevel ParseLogLevel(const std::string& name);

namespace internal {

/// Accumulates one log line and emits it to stderr on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the level is disabled.
class NullMessage {
 public:
  template <typename T>
  NullMessage& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal

bool LogLevelEnabled(LogLevel level);

}  // namespace pathrank

#define PR_LOG(level)                                     \
  if (!::pathrank::LogLevelEnabled(level)) {              \
  } else                                                  \
    ::pathrank::internal::LogMessage(level, __FILE__, __LINE__)

#define PR_LOG_TRACE PR_LOG(::pathrank::LogLevel::kTrace)
#define PR_LOG_DEBUG PR_LOG(::pathrank::LogLevel::kDebug)
#define PR_LOG_INFO PR_LOG(::pathrank::LogLevel::kInfo)
#define PR_LOG_WARN PR_LOG(::pathrank::LogLevel::kWarn)
#define PR_LOG_ERROR PR_LOG(::pathrank::LogLevel::kError)

// PR_CHECK: invariant checking that stays on in release builds.
#define PR_CHECK(cond)                                                      \
  if (cond) {                                                               \
  } else                                                                    \
    ::pathrank::internal::CheckFailure(#cond, __FILE__, __LINE__).stream()

// PR_DCHECK: PR_CHECK in builds without NDEBUG (Debug and the sanitizer
// jobs); in Release the condition still compiles but is never evaluated.
#ifdef NDEBUG
#define PR_DCHECK(cond) \
  while (false) PR_CHECK(cond)
#else
#define PR_DCHECK(cond) PR_CHECK(cond)
#endif

namespace pathrank::internal {

/// Aborts the process after streaming a diagnostic message.
class CheckFailure {
 public:
  CheckFailure(const char* condition, const char* file, int line);
  [[noreturn]] ~CheckFailure() noexcept(false);

  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace pathrank::internal
