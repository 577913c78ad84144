// Checked number parsing for command-line flag values.
//
// std::atoll is undefined on out-of-range input and stops silently at
// the first non-digit ("12x" reads as 12), and casting its result to
// an unsigned count turns "-1" into SIZE_MAX.  parse_count accepts one
// or more ASCII decimal digits whose value fits in T, and nothing else:
// no sign, no whitespace, no trailing characters.  std::atof has the
// same faults ("abc" reads as 0); parse_real accepts a whole decimal
// floating-point literal whose finite value lies in the flag's range.
#pragma once

#include <charconv>
#include <cmath>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace fastmon {

/// The value of `text` as a non-negative decimal integer of type T, or
/// nullopt when `text` is empty, carries a sign or any non-digit, or
/// overflows T.
template <typename T>
[[nodiscard]] std::optional<T> parse_count(std::string_view text) {
    static_assert(std::is_unsigned_v<T>);
    T value{};
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return value;
}

/// parse_count for the value of the command-line flag `flag`: stores
/// it in `out`, or prints a diagnostic naming the flag to stderr and
/// returns false (leaving `out` untouched).
template <typename T>
[[nodiscard]] bool parse_count_flag(const char* flag, const char* text,
                                    T& out) {
    if (const std::optional<T> value = parse_count<T>(text)) {
        out = *value;
        return true;
    }
    std::cerr << "error: " << flag
              << " expects a non-negative integer, got '" << text << "'\n";
    return false;
}

/// Accepted values of a real-valued flag: [lo, hi], or (lo, hi] when
/// lo_open; `text` states the range in diagnostics.
struct RealRange {
    double lo = 0.0;
    double hi = std::numeric_limits<double>::infinity();
    bool lo_open = false;
    const char* text = ">= 0";
};
inline constexpr RealRange kPositive{.lo_open = true, .text = "> 0"};
inline constexpr RealRange kNonNegative{};
inline constexpr RealRange kUnitInterval{.hi = 1.0, .text = "in [0, 1]"};

/// The value of `text` as a finite double within `range`, or nullopt
/// unless all of `text` is one decimal floating-point literal (no '+',
/// no whitespace) whose value is finite and in `range`.
[[nodiscard]] inline std::optional<double> parse_real(std::string_view text,
                                                      const RealRange& range) {
    double value = 0.0;
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end || !std::isfinite(value) ||
        (range.lo_open ? value <= range.lo : value < range.lo) ||
        value > range.hi) {
        return std::nullopt;
    }
    return value;
}

/// parse_real for the value of the command-line flag `flag`: stores it
/// in `out`, or prints a diagnostic naming the flag and its range to
/// stderr and returns false (leaving `out` untouched).
[[nodiscard]] inline bool parse_real_flag(const char* flag, const char* text,
                                          double& out,
                                          const RealRange& range) {
    if (const std::optional<double> value = parse_real(text, range)) {
        out = *value;
        return true;
    }
    std::cerr << "error: " << flag << " expects a finite number "
              << range.text << ", got '" << text << "'\n";
    return false;
}

}  // namespace fastmon
