// Typed INI value conversions shared by every .scn/.bounds consumer.
//
// serde/ini.hpp returns values verbatim; the key tables of
// serde/ini_schema.hpp (.scn scenarios, fuzz bounds files) parse and emit
// scalars through this one grammar. This header is the single definition of
// it, in both directions:
//
//  * parse_* — strict string → value (std::nullopt on anything malformed);
//  * format_* — value → the canonical string the parser accepts, chosen so
//    that format(parse(format(v))) is a fixpoint (the round-trip property
//    the minimizer and the to_scn() tests rely on).
//
// Times in .scn files are decimal milliseconds with at most six fractional
// digits — exactly nanosecond granularity, which is also SimTime's unit, so
// the ms representation is lossless in both directions.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace dauct::serde {

// Times are plain std::int64_t nanoseconds here, not sim::SimTime: serde
// sits below sim in the layer order, and sim::SimTime is exactly this type
// (with "forever" = INT64_MAX, mirrored as kForeverNs).
inline constexpr std::int64_t kForeverNs =
    std::numeric_limits<std::int64_t>::max();

std::optional<std::uint64_t> parse_u64(const std::string& s);
std::optional<double> parse_f64(const std::string& s);
std::optional<bool> parse_bool_word(const std::string& s);

/// Decimal milliseconds → virtual nanoseconds. Values beyond the int64 ns
/// range clamp to kForeverNs ("held for the whole run") instead of hitting
/// llround's out-of-range UB. Negative values are rejected.
std::optional<std::int64_t> parse_time_ms(const std::string& s);

/// Shortest decimal string that parses back to exactly `v` (round-trip via
/// strtod). "0.02" stays "0.02", not "0.020000000000000004".
std::string format_f64(double v);

/// Nanoseconds → decimal milliseconds with up to six fractional digits
/// (trailing zeros trimmed): the exact inverse of parse_time_ms for every
/// representable time. kForeverNs has no finite ms form; callers omit the
/// key instead (the parsed default is already "forever").
std::string format_time_ms(std::int64_t ns);

}  // namespace dauct::serde
