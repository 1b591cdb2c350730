#include "serving/fault_injector.h"

#include <chrono>
#include <thread>
#include <vector>

#include "common/parse.h"
#include "common/string_util.h"

namespace pathrank::serving {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashName(const std::string& name) {
  // FNV-1a: stable across runs and platforms (std::hash is neither
  // guaranteed), which the determinism contract needs.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Uniform draw in [0,1) from the keyed counter — the same finalizer-on-
/// a-counter construction common::Rng uses.
double UniformDraw(uint64_t seed, uint64_t site_hash, uint64_t ordinal) {
  const uint64_t bits = SplitMix64(seed ^ SplitMix64(site_hash ^ ordinal));
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Rule-indexed spec diagnostic, in the common/parse field convention
/// ("<where>: <what>, got '<token>'"). Rules are 1-based, like lines.
[[noreturn]] void ThrowSpecError(size_t rule_index,
                                 const std::string& what) {
  throw FaultSpecError("fault spec rule " + std::to_string(rule_index) +
                       ": " + what);
}

}  // namespace

std::shared_ptr<FaultInjector> FaultInjector::Parse(const std::string& spec,
                                                    uint64_t seed) {
  auto injector = std::shared_ptr<FaultInjector>(new FaultInjector());
  injector->seed_ = seed;
  if (spec.empty()) return injector;
  size_t rule_index = 0;
  for (const std::string& rule_text : Split(spec, ';')) {
    ++rule_index;
    if (rule_text.empty()) {
      ThrowSpecError(rule_index, "empty rule (stray ';'?)");
    }
    const std::vector<std::string> fields = Split(rule_text, ':');
    const std::string& site = fields[0];
    if (site.empty() || site.find('=') != std::string::npos) {
      ThrowSpecError(rule_index,
                     "site expects a name, got '" + site + "'");
    }
    auto [it, inserted] = injector->rules_.try_emplace(site);
    if (!inserted) {
      ThrowSpecError(rule_index, "duplicate site '" + site + "'");
    }
    Rule& rule = it->second;
    bool has_effect = false;
    for (size_t i = 1; i < fields.size(); ++i) {
      const std::string& field = fields[i];
      if (field == "error") {
        rule.error = true;
        has_effect = true;
      } else if (field.rfind("delay_ms=", 0) == 0) {
        const std::string token = field.substr(9);
        // Whole-token, overflow-checked: "delay_ms=12x" and a value past
        // INT64_MAX both throw instead of installing a truncated delay.
        if (!ParseInt64(token, &rule.delay_ms) || rule.delay_ms < 0) {
          ThrowSpecError(rule_index,
                         "delay_ms expects a non-negative integer, got '" +
                             token + "'");
        }
        has_effect = true;
      } else if (field.rfind("p=", 0) == 0) {
        const std::string token = field.substr(2);
        if (!ParseDouble(token, &rule.probability) ||
            rule.probability < 0.0 || rule.probability > 1.0) {
          ThrowSpecError(rule_index,
                         "p expects a number in [0,1], got '" + token +
                             "'");
        }
      } else {
        ThrowSpecError(rule_index, "unknown field '" + field + "'");
      }
    }
    if (!has_effect) {
      ThrowSpecError(rule_index, "rule '" + rule_text +
                                     "' has no effect (need delay_ms= "
                                     "or error)");
    }
  }
  return injector;
}

void FaultInjector::Inject(const std::string& site) const {
  const auto it = rules_.find(site);
  if (it == rules_.end()) return;
  const Rule& rule = it->second;
  // The ordinal advances on every PASS through the site (fired or not):
  // which calls fault is then a pure function of (seed, site, ordinal),
  // independent of timing.
  const uint64_t ordinal = rule.ordinal.fetch_add(1, std::memory_order_relaxed);
  if (rule.probability < 1.0 &&
      UniformDraw(seed_, HashName(site), ordinal) >= rule.probability) {
    return;
  }
  if (rule.delay_ms > 0) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(rule.delay_ms));
  }
  if (rule.error) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    throw FaultInjectedError(site);
  }
}

}  // namespace pathrank::serving
