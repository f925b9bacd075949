#include "serde/ini_values.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dauct::serde {

std::optional<std::uint64_t> parse_u64(const std::string& s) {
  // strtoull would skip leading blanks and accept a sign, wrapping "-1".
  if (s.empty() || s[0] < '0' || s[0] > '9') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

std::optional<double> parse_f64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !std::isfinite(v)) return std::nullopt;
  return v;
}

std::optional<bool> parse_bool_word(const std::string& s) {
  if (s == "true" || s == "yes" || s == "1") return true;
  if (s == "false" || s == "no" || s == "0") return false;
  return std::nullopt;
}

std::optional<std::int64_t> parse_time_ms(const std::string& s) {
  const auto v = parse_f64(s);
  if (!v || *v < 0) return std::nullopt;
  if (*v >= static_cast<double>(kForeverNs) / 1e6) return kForeverNs;
  return static_cast<std::int64_t>(std::llround(*v * 1e6));
}

std::string format_f64(double v) {
  char buf[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string format_time_ms(std::int64_t ns) {
  // Integer split: whole milliseconds plus a six-digit nanosecond fraction.
  // Pure integer arithmetic, so every SimTime round-trips exactly through
  // parse_time_ms (which llrounds ms·1e6 — within its double precision,
  // intact for every time a run can produce).
  const std::int64_t whole = ns / 1'000'000;
  std::int64_t frac = ns % 1'000'000;
  char buf[40];
  if (frac == 0) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(whole));
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%lld.%06lld", static_cast<long long>(whole),
                static_cast<long long>(frac));
  std::string out = buf;
  while (out.back() == '0') out.pop_back();
  return out;
}

}  // namespace dauct::serde
