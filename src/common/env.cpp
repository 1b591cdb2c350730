#include "common/env.h"

#include <cstdlib>

#include "common/parse.h"

namespace pathrank {
namespace {

const char* RawEnv(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && v[0] != '\0') ? v : nullptr;
}

}  // namespace

std::string EnvString(const char* name, const std::string& fallback) {
  const char* v = RawEnv(name);
  return v != nullptr ? std::string(v) : fallback;
}

int64_t EnvInt(const char* name, int64_t fallback) {
  // Whole-token or fallback: "12abc" and an overflowing value fall back
  // rather than half-parse (strtoll would yield 12 / a clamped extreme).
  const char* v = RawEnv(name);
  if (v == nullptr) return fallback;
  int64_t parsed = 0;
  return ParseInt64(v, &parsed) ? parsed : fallback;
}

}  // namespace pathrank
