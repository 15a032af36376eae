// The one number parser for untrusted text: CLI flags, arrival / jammer /
// protocol spec fields, and scenario-pack values. The whole string must
// be the number: no leading or trailing bytes (whitespace included), no
// sign on an unsigned value, no overflow, and never a NaN or an infinity.
// Locale-independent (std::from_chars).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>

namespace lowsense {

/// Decimal digits only: "-1", "+1", " 1", "1e6" and "10abc" are rejected.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

/// A finite decimal or exponent form ("0.25", "-3", "1e6"); "nan",
/// "inf", "+1", "0.2x" and out-of-range magnitudes are rejected.
inline std::optional<double> parse_f64(std::string_view text) noexcept {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace lowsense
