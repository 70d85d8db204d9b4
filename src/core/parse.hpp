// Checked numeric parsing for user input (CLI flags, scenario keys): the
// whole token must be the number, so "-3", "12x", "nan" and "1e999" end in
// a SlackError naming the flag or key instead of a wrapped or truncated
// value.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>

#include "core/error.hpp"

namespace slackvm::core {

/// Parse all of `text` as a decimal count in [0, max]: digits only — no
/// sign, no whitespace, no trailing bytes. Throws SlackError naming `what`.
[[nodiscard]] inline std::uint64_t parse_count(
    std::string_view text, const std::string& what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::result_out_of_range || (ec == std::errc{} && value > max)) {
    SLACKVM_THROW(what + ": '" + std::string(text) + "' is out of range (max " +
                  std::to_string(max) + ")");
  }
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    SLACKVM_THROW(what + ": expected a non-negative integer, got '" +
                  std::string(text) + "'");
  }
  return value;
}

/// Parse all of `text` as a finite real (no trailing bytes, no inf/nan, no
/// overflow). Throws SlackError naming `what`.
[[nodiscard]] inline double parse_real(std::string_view text, const std::string& what) {
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || !std::isfinite(value)) {
    SLACKVM_THROW(what + ": expected a finite number, got '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace slackvm::core
