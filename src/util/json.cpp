#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace fastmon {

const Json* Json::find(std::string_view key) const {
    if (type_ != Type::Object) return nullptr;
    for (const auto& [k, v] : obj_) {
        if (k == key) return &v;
    }
    return nullptr;
}

Json& Json::set(std::string_view key, Json value) {
    if (type_ == Type::Null) type_ = Type::Object;
    for (auto& [k, v] : obj_) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    obj_.emplace_back(std::string(key), std::move(value));
    return *this;
}

Json& Json::push_back(Json value) {
    if (type_ == Type::Null) type_ = Type::Array;
    arr_.push_back(std::move(value));
    return *this;
}

bool operator==(const Json& a, const Json& b) {
    if (a.type_ != b.type_) return false;
    switch (a.type_) {
        case Json::Type::Null: return true;
        case Json::Type::Bool: return a.bool_ == b.bool_;
        case Json::Type::Number: return a.num_ == b.num_;
        case Json::Type::String: return a.str_ == b.str_;
        case Json::Type::Array: return a.arr_ == b.arr_;
        case Json::Type::Object: return a.obj_ == b.obj_;
    }
    return false;
}

namespace {

void escape_into(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void number_into(std::string& out, double v) {
    if (!std::isfinite(v)) {  // JSON has no inf/nan
        out += "null";
        return;
    }
    // Integers (the common case: counters, ids) print without exponent
    // or trailing zeros; everything else round-trips via %.17g.
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        out += buf;
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
}

void newline_indent(std::string& out, int indent, int depth) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
    switch (type_) {
        case Type::Null: out += "null"; break;
        case Type::Bool: out += bool_ ? "true" : "false"; break;
        case Type::Number: number_into(out, num_); break;
        case Type::String: escape_into(out, str_); break;
        case Type::Array: {
            if (arr_.empty()) {
                out += "[]";
                break;
            }
            out += '[';
            for (std::size_t i = 0; i < arr_.size(); ++i) {
                if (i > 0) out += ',';
                newline_indent(out, indent, depth + 1);
                arr_[i].dump_to(out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out += ']';
            break;
        }
        case Type::Object: {
            if (obj_.empty()) {
                out += "{}";
                break;
            }
            out += '{';
            for (std::size_t i = 0; i < obj_.size(); ++i) {
                if (i > 0) out += ',';
                newline_indent(out, indent, depth + 1);
                escape_into(out, obj_[i].first);
                out += indent > 0 ? ": " : ":";
                obj_[i].second.dump_to(out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out += '}';
            break;
        }
    }
}

std::string Json::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

namespace {

struct Parser {
    std::string_view text;
    std::size_t pos = 0;
    std::string error;
    std::size_t error_offset = 0;
    std::size_t depth = 0;

    [[nodiscard]] bool at_end() const { return pos >= text.size(); }
    [[nodiscard]] char peek() const { return text[pos]; }

    void skip_ws() {
        while (!at_end() && (text[pos] == ' ' || text[pos] == '\t' ||
                             text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool fail(const std::string& msg) {
        if (error.empty()) {
            error = msg;
            error_offset = pos;
        }
        return false;
    }

    /// 1-based line/column of `offset` (error paths only, so the scan
    /// over the prefix is fine).
    void locate(std::size_t offset, std::size_t& line,
                std::size_t& column) const {
        line = 1;
        column = 1;
        const std::size_t limit = std::min(offset, text.size());
        for (std::size_t i = 0; i < limit; ++i) {
            if (text[i] == '\n') {
                ++line;
                column = 1;
            } else {
                ++column;
            }
        }
    }

    bool consume(char c, const char* what) {
        skip_ws();
        if (at_end() || text[pos] != c) {
            return fail(std::string("expected ") + what);
        }
        ++pos;
        return true;
    }

    bool literal(std::string_view word) {
        if (text.substr(pos, word.size()) != word) {
            return fail("invalid literal");
        }
        pos += word.size();
        return true;
    }

    bool parse_string(std::string& out) {
        if (!consume('"', "string")) return false;
        out.clear();
        while (true) {
            if (at_end()) return fail("unterminated string");
            const char c = text[pos++];
            if (c == '"') return true;
            if (static_cast<unsigned char>(c) < 0x20) {
                return fail("control character in string");
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (at_end()) return fail("unterminated escape");
            const char e = text[pos++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos + 4 > text.size()) return fail("bad \\u escape");
                    unsigned code = 0;
                    for (int k = 0; k < 4; ++k) {
                        const char h = text[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            return fail("bad \\u escape");
                        }
                    }
                    // UTF-8 encode the BMP code point (surrogate pairs
                    // are passed through as two encoded halves; the
                    // artifacts this parser reads never contain them).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default: return fail("bad escape");
            }
        }
    }

    bool parse_value(Json& out) {
        skip_ws();
        if (at_end()) return fail("unexpected end of input");
        const char c = peek();
        if (c == '{') return parse_object(out);
        if (c == '[') return parse_array(out);
        if (c == '"') {
            std::string s;
            if (!parse_string(s)) return false;
            out = Json(std::move(s));
            return true;
        }
        if (c == 't') {
            if (!literal("true")) return false;
            out = Json(true);
            return true;
        }
        if (c == 'f') {
            if (!literal("false")) return false;
            out = Json(false);
            return true;
        }
        if (c == 'n') {
            if (!literal("null")) return false;
            out = Json();
            return true;
        }
        return parse_number(out);
    }

    bool parse_number(Json& out) {
        const std::size_t start = pos;
        if (!at_end() && peek() == '-') ++pos;
        while (!at_end() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                             peek() == '.' || peek() == 'e' || peek() == 'E' ||
                             peek() == '+' || peek() == '-')) {
            ++pos;
        }
        double v = 0.0;
        const auto [end, ec] =
            std::from_chars(text.data() + start, text.data() + pos, v);
        if (ec != std::errc{} || end != text.data() + pos || pos == start) {
            pos = start;
            return fail("invalid number");
        }
        out = Json(v);
        return true;
    }

    bool parse_array(Json& out) {
        if (!consume('[', "'['")) return false;
        if (++depth > Json::kMaxParseDepth) return fail("nesting too deep");
        const bool ok = parse_array_body(out);
        --depth;
        return ok;
    }

    bool parse_array_body(Json& out) {
        JsonArray arr;
        skip_ws();
        if (!at_end() && peek() == ']') {
            ++pos;
            out = Json(std::move(arr));
            return true;
        }
        while (true) {
            Json v;
            if (!parse_value(v)) return false;
            arr.push_back(std::move(v));
            skip_ws();
            if (at_end()) return fail("unterminated array");
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == ']') {
                ++pos;
                out = Json(std::move(arr));
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool parse_object(Json& out) {
        if (!consume('{', "'{'")) return false;
        if (++depth > Json::kMaxParseDepth) return fail("nesting too deep");
        const bool ok = parse_object_body(out);
        --depth;
        return ok;
    }

    bool parse_object_body(Json& out) {
        JsonObject obj;
        skip_ws();
        if (!at_end() && peek() == '}') {
            ++pos;
            out = Json(std::move(obj));
            return true;
        }
        while (true) {
            skip_ws();
            std::string key;
            if (!parse_string(key)) return false;
            if (!consume(':', "':'")) return false;
            Json v;
            if (!parse_value(v)) return false;
            obj.emplace_back(std::move(key), std::move(v));
            skip_ws();
            if (at_end()) return fail("unterminated object");
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == '}') {
                ++pos;
                out = Json(std::move(obj));
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text,
                                JsonParseError& error) {
    Parser p{text};
    Json value;
    bool ok = p.parse_value(value);
    if (ok) {
        p.skip_ws();
        if (!p.at_end()) ok = p.fail("trailing characters");
    }
    if (!ok) {
        error.offset = p.error_offset;
        error.message = p.error;
        p.locate(p.error_offset, error.line, error.column);
        return std::nullopt;
    }
    return value;
}

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
    JsonParseError detail;
    std::optional<Json> value = parse(text, detail);
    if (!value && error != nullptr) {
        *error = detail.message + " at line " + std::to_string(detail.line) +
                 ", column " + std::to_string(detail.column) + " (offset " +
                 std::to_string(detail.offset) + ")";
    }
    return value;
}

std::optional<std::uint64_t> json_uint(const Json& j, std::uint64_t max) {
    if (!j.is_number()) return std::nullopt;
    const double v = j.as_number();
    // 2^64 is the first double past the uint64 range; the negated
    // comparison also rejects NaN.
    if (!(v >= 0.0 && v < 18446744073709551616.0) || v != std::floor(v)) {
        return std::nullopt;
    }
    const auto u = static_cast<std::uint64_t>(v);
    if (u > max) return std::nullopt;
    return u;
}

}  // namespace fastmon
