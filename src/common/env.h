// Helpers for reading experiment configuration from environment variables
// (used by the benchmark harness to select workload scale without
// recompiling).
#pragma once

#include <cstdint>
#include <string>

namespace pathrank {

/// Returns the value of `name`, or `fallback` when unset/empty.
std::string EnvString(const char* name, const std::string& fallback);

/// Returns `name` parsed as int64, or `fallback` when unset or unparsable.
int64_t EnvInt(const char* name, int64_t fallback);

}  // namespace pathrank
