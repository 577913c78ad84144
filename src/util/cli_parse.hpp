// Checked integer parsing for command-line flag values.
//
// std::atoll is undefined on out-of-range input and stops silently at
// the first non-digit ("12x" reads as 12), and casting its result to
// an unsigned count turns "-1" into SIZE_MAX.  parse_count accepts one
// or more ASCII decimal digits whose value fits in T, and nothing else:
// no sign, no whitespace, no trailing characters.
#pragma once

#include <charconv>
#include <iostream>
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

}  // namespace fastmon
