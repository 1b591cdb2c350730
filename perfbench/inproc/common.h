// Shared pieces of perfbench_inproc: flag parsing, the span recorder and
// small output helpers. Nothing here is part of the
// PathRank library; the benchmark only calls the library's public
// functions around these.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// `--key value` flags after the subcommand. A missing flag is fatal:
/// run.py passes every value explicitly.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Str(const std::string& key) const;
  int64_t Int(const std::string& key) const;
  double Double(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

[[noreturn]] void Fail(const std::string& message);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time this process has used, every thread.
inline int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// One recorded call: name, interval, the span that caused it, and the
/// stream position (request id) it belongs to.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t request = -1;
};

/// In-memory span recorder. Disabled, Begin returns -1 and records
/// nothing, so the untraced replay runs the same code path minus the
/// clock reads and the push.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  int32_t Begin(const char* name, int32_t parent, int64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }
  /// Writes one "id parent request name start_ns end_ns" line per span.
  void Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int32_t parent = -1,
             int64_t request = -1)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int32_t id_;
};

/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb();

/// "%.17g": parses back to the same double.
std::string Num(double value);

int RunReference(const Flags& flags);
int RunRouteReplay(const Flags& flags);
int RunTrain(const Flags& flags);

}  // namespace perfbench
