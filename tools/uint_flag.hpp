// Whole-string parsing of the unsigned integer flags of dauct_cli and
// dauct_fuzz.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>

#include "serde/ini_values.hpp"

namespace dauct::tools {

inline constexpr std::uint64_t kNoUpperBound = std::numeric_limits<std::uint64_t>::max();

/// `value` of `flag` as a whole decimal integer in [lo, hi]: no sign, no
/// blanks, no trailing junk, no overflow (strtoul alone reads "abc" as 0
/// and "4x" as 4). Otherwise prints one line naming the flag and the
/// accepted range, and returns std::nullopt.
inline std::optional<std::uint64_t> parse_uint_flag(const char* flag, const char* value,
                                                    std::uint64_t lo,
                                                    std::uint64_t hi = kNoUpperBound) {
  const auto n = serde::parse_u64(value);
  if (n && *n >= lo && *n <= hi) return n;
  if (hi != kNoUpperBound) {
    std::fprintf(stderr, "%s must be an integer in [%llu, %llu] (got %s)\n", flag,
                 static_cast<unsigned long long>(lo), static_cast<unsigned long long>(hi),
                 value);
  } else {
    std::fprintf(stderr, "%s must be a %s integer (got %s)\n", flag,
                 lo == 0 ? "non-negative" : "positive", value);
  }
  return std::nullopt;
}

}  // namespace dauct::tools
