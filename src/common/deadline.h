// Request deadlines and cooperative cancellation for the serving stack.
//
// A Deadline is a point on the steady clock (or "unbounded"); a
// CancelToken latches "this work should stop" from any of three sources:
// an explicit Cancel() call, an expired Deadline, or a parent token (so a
// token derived for one pipeline stage inherits cancellation from the
// request-level token above it). Expired() is sticky: once it returns
// true it returns true forever, so checkpoint code never sees cancellation
// "un-happen" mid-loop.
//
// Cost contract: the routing hot loops take `const CancelToken*` defaulted
// to nullptr and test it once per checkpoint. With no token the fast path
// pays one pointer compare per N heap pops — and because no arithmetic or
// iteration order depends on the token, deadline-free results stay bitwise
// identical to the pre-deadline code.
//
// TripAfterChecks(n) is the deterministic test hook: the token expires on
// the (n+1)-th Expired() call regardless of the clock, which lets chaos
// tests drive cancellation into an exact spot of the enumeration pipeline
// reproducibly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace pathrank {

/// A point on the steady clock before which work must finish. Default
/// constructed = unbounded (never expires).
class Deadline {
 public:
  Deadline() = default;

  /// Expires `budget` from now. A non-positive budget is already expired.
  static Deadline After(std::chrono::microseconds budget) {
    Deadline d;
    d.bounded_ = true;
    d.at_ = std::chrono::steady_clock::now() + budget;
    return d;
  }

  static Deadline AfterMs(int64_t budget_ms) {
    return After(std::chrono::microseconds(budget_ms * 1000));
  }

  bool bounded() const { return bounded_; }

  bool Expired() const {
    return bounded_ && std::chrono::steady_clock::now() >= at_;
  }

 private:
  bool bounded_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// Sticky cooperative-cancellation latch, checkable from any thread.
/// Owned by the request (typically on the planner's stack) and passed by
/// const pointer down the enumeration pipeline.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(Deadline deadline, const CancelToken* parent = nullptr)
      : deadline_(deadline), parent_(parent) {}
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation (sticky). Callable from any thread.
  void Cancel() const { expired_.store(true, std::memory_order_relaxed); }

  /// Fault hook: Expired() latches true on its (n+1)-th invocation.
  void TripAfterChecks(uint64_t n) { trip_after_ = n; }

  /// True once cancelled, past the deadline, past the check budget, or
  /// once the parent expired — whichever comes first. Sticky.
  bool Expired() const {
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (parent_ != nullptr && parent_->Expired()) {
      Cancel();
      return true;
    }
    if (trip_after_ != kNoTrip &&
        checks_.fetch_add(1, std::memory_order_relaxed) >= trip_after_) {
      Cancel();
      return true;
    }
    if (deadline_.Expired()) {
      Cancel();
      return true;
    }
    return false;
  }

 private:
  static constexpr uint64_t kNoTrip = std::numeric_limits<uint64_t>::max();

  Deadline deadline_;
  const CancelToken* parent_ = nullptr;
  uint64_t trip_after_ = kNoTrip;
  mutable std::atomic<bool> expired_{false};
  mutable std::atomic<uint64_t> checks_{0};
};

}  // namespace pathrank
