// Minimal self-contained JSON value: writer + recursive-descent parser.
//
// The observability layer (trace export, metrics registry, run
// manifests) needs machine-readable artifacts that external tools
// (Perfetto, jq, CI scripts) can load, and the tests need to parse
// those artifacts back for round-trip checks.  This is deliberately
// small: no streaming, no SAX, object keys keep insertion order so
// output is deterministic.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace fastmon {

class Json;

/// Structured parse-failure report (1-based line/column).
struct JsonParseError {
    std::size_t offset = 0;
    std::size_t line = 0;
    std::size_t column = 0;
    std::string message;
};

using JsonArray = std::vector<Json>;
/// Insertion-ordered object (duplicate keys keep the last value on
/// set(), the first on parse, mirroring common JSON library behavior).
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
public:
    enum class Type : std::uint8_t {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;  // null
    Json(std::nullptr_t) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double v) : type_(Type::Number), num_(v) {}
    Json(int v) : type_(Type::Number), num_(v) {}
    Json(std::int64_t v) : type_(Type::Number), num_(static_cast<double>(v)) {}
    Json(std::uint64_t v) : type_(Type::Number), num_(static_cast<double>(v)) {}
    template <typename T>
        requires(std::is_integral_v<T> && !std::is_same_v<T, bool> &&
                 !std::is_same_v<T, int> && !std::is_same_v<T, std::int64_t> &&
                 !std::is_same_v<T, std::uint64_t>)
    Json(T v) : type_(Type::Number), num_(static_cast<double>(v)) {}
    Json(const char* s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
    Json(JsonArray a) : type_(Type::Array), arr_(std::move(a)) {}
    Json(JsonObject o) : type_(Type::Object), obj_(std::move(o)) {}

    static Json array() { return Json(JsonArray{}); }
    static Json object() { return Json(JsonObject{}); }

    [[nodiscard]] Type type() const { return type_; }
    [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
    [[nodiscard]] bool is_bool() const { return type_ == Type::Bool; }
    [[nodiscard]] bool is_number() const { return type_ == Type::Number; }
    [[nodiscard]] bool is_string() const { return type_ == Type::String; }
    [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
    [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

    [[nodiscard]] bool as_bool() const { return bool_; }
    [[nodiscard]] double as_number() const { return num_; }
    [[nodiscard]] const std::string& as_string() const { return str_; }
    [[nodiscard]] const JsonArray& as_array() const { return arr_; }
    [[nodiscard]] JsonArray& as_array() { return arr_; }
    [[nodiscard]] const JsonObject& as_object() const { return obj_; }
    [[nodiscard]] JsonObject& as_object() { return obj_; }

    /// Object access; returns nullptr when absent or not an object.
    [[nodiscard]] const Json* find(std::string_view key) const;
    /// Sets (or replaces) an object key; converts a null value to an
    /// empty object first so building up manifests reads naturally.
    Json& set(std::string_view key, Json value);
    /// Appends to an array (converts null to an empty array first).
    Json& push_back(Json value);

    /// Deep structural equality; numbers compare exactly.
    friend bool operator==(const Json& a, const Json& b);

    /// Serializes; indent > 0 pretty-prints with that many spaces.
    [[nodiscard]] std::string dump(int indent = 0) const;

    /// Parses `text`; returns std::nullopt (and a message in `error`,
    /// if given) on malformed input.  Trailing non-whitespace is an
    /// error.  Nesting deeper than kMaxParseDepth is rejected (the
    /// recursive-descent parser must not be an attacker-controlled
    /// stack).
    static std::optional<Json> parse(std::string_view text,
                                     std::string* error = nullptr);

    /// Same, with a structured error (offset + 1-based line/column).
    /// Takes a reference so `parse(text, nullptr)` stays unambiguous.
    static std::optional<Json> parse(std::string_view text,
                                     JsonParseError& error);

    /// Maximum array/object nesting accepted by parse().
    static constexpr std::size_t kMaxParseDepth = 192;

private:
    void dump_to(std::string& out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    JsonArray arr_;
    JsonObject obj_;
};

/// `j` as an unsigned integer no larger than `max`: a number that is
/// integral, non-negative and in range; std::nullopt for anything else
/// (a fraction, a negative, NaN or inf, too large, not a number).  The
/// checked read for integer fields of checkpoint, shard and cache
/// files, where a bare static_cast would truncate or wrap silently.
[[nodiscard]] std::optional<std::uint64_t> json_uint(const Json& j,
                                                     std::uint64_t max);

/// Same, bounded by the range of T.
template <typename T>
    requires std::is_unsigned_v<T>
[[nodiscard]] std::optional<T> json_uint(const Json& j) {
    const auto v = json_uint(j, std::numeric_limits<T>::max());
    if (!v) return std::nullopt;
    return static_cast<T>(*v);
}

}  // namespace fastmon
