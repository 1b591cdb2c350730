// Deterministic fault injection for chaos-testing the serving stack.
//
// A FaultInjector holds a set of per-SITE rules parsed from a compact
// spec string; instrumented seams (the HttpBackend lambdas the CLI and
// the tests build, plus any std::function boundary that wants coverage)
// call Inject("site") on every pass. A matching rule may
//
//   * stall the caller (`delay_ms=N`) — models a slow engine, a GC-like
//     pause, a blocked shard — and/or
//   * throw FaultInjectedError (`error`) — models a crashed backend; the
//     HTTP layer turns it into a 500 like any other handler exception,
//
// each gated by an optional probability (`p=F`).
//
// Spec grammar (';'-separated rules, ':'-separated fields):
//
//   spec  := rule (';' rule)*
//   rule  := site (':' field)*
//   field := "delay_ms=" integer | "p=" float-in-[0,1] | "error"
//
// e.g.  "route:delay_ms=50"  "score:error:p=0.2;route:delay_ms=5:p=0.5"
//
// Determinism: probabilistic rules draw from splitmix64 keyed on
// (seed, site-name hash, per-site call ordinal) — no global RNG, no
// wall clock — so a single-threaded call sequence injects the exact
// same faults on every run, and a concurrent one injects the same
// MULTISET of faults (ordinals are handed out atomically; only their
// assignment to callers varies). That is what lets chaos_test assert
// exact outcome sets instead of "roughly N errors".
//
// Thread-safety: Inject is const and safe from any number of threads;
// rules are immutable after Parse.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace pathrank::serving {

/// Thrown by Inject for `error` rules. Catchable upstream of the seam;
/// the HTTP handlers let it escape and answer 500.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& site)
      : std::runtime_error("injected fault at site '" + site + "'") {}
};

/// Thrown by Parse on a malformed spec. Messages follow the
/// common/parse field-diagnostic convention — "fault spec rule <n>:
/// <field> expects ..., got '<token>'" — so a typo in a
/// PATHRANK_FAULTS-style flag is a one-glance fix instead of a
/// silently fault-free chaos run.
class FaultSpecError : public std::invalid_argument {
 public:
  explicit FaultSpecError(const std::string& message)
      : std::invalid_argument(message) {}
};

/// Parsed, immutable fault plan. Default-constructed = no faults (every
/// Inject is a no-op), so seams can call unconditionally.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Parses `spec` (grammar above). Throws FaultSpecError on a malformed
  /// spec — unknown field, bad or overflowing number, p outside [0,1],
  /// empty site, duplicate site, rule with no effect. Never returns
  /// nullptr: an empty spec parses to a no-fault injector. Shared-ptr
  /// because the backend lambdas that capture the injector must copy,
  /// and the per-site ordinals must stay shared.
  static std::shared_ptr<FaultInjector> Parse(const std::string& spec,
                                              uint64_t seed);

  /// Applies the rule for `site`, if any: maybe-sleep then maybe-throw
  /// FaultInjectedError. Unknown sites are free (one hash lookup).
  void Inject(const std::string& site) const;

  bool enabled() const { return !rules_.empty(); }
  /// Faults actually fired so far (for the shutdown report / asserts).
  uint64_t injected_delays() const {
    return delays_.load(std::memory_order_relaxed);
  }
  uint64_t injected_errors() const {
    return errors_.load(std::memory_order_relaxed);
  }

 private:
  struct Rule {
    int64_t delay_ms = 0;
    double probability = 1.0;
    bool error = false;
    /// Per-site call counter: the third key of the deterministic draw.
    mutable std::atomic<uint64_t> ordinal{0};
  };

  uint64_t seed_ = 0;
  /// Node-based map: Rule holds an atomic (immovable), so rules are
  /// emplaced once at parse time and never moved after.
  std::unordered_map<std::string, Rule> rules_;
  mutable std::atomic<uint64_t> delays_{0};
  mutable std::atomic<uint64_t> errors_{0};
};

}  // namespace pathrank::serving
