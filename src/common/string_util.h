// Small string helpers shared across modules.
#pragma once

#include <string>
#include <vector>

namespace pathrank {

/// Splits `s` on `sep`; consecutive separators yield empty fields.
std::vector<std::string> Split(const std::string& s, char sep);

/// Trims ASCII whitespace from both ends.
std::string Trim(const std::string& s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Returns true when `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

}  // namespace pathrank
