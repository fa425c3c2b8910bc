#include "metrics/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace terp {
namespace metrics {

const JsonValue *
JsonValue::get(const std::string &key) const
{
    if (type != Type::Object)
        return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

std::optional<std::uint64_t>
JsonValue::asU64() const
{
    if (type != Type::Number)
        return std::nullopt;
    // Prefer the raw text: a 64-bit count round-trips exactly where
    // the double may have lost low bits.
    if (!raw.empty() && raw.find_first_of(".eE-") == std::string::npos) {
        errno = 0;
        std::uint64_t v = std::strtoull(raw.c_str(), nullptr, 10);
        if (errno == ERANGE)
            return std::nullopt;
        return v;
    }
    // 2^64; every whole double below it converts exactly.
    constexpr double limit = 18446744073709551616.0;
    if (!(number >= 0 && number < limit) || number != std::floor(number))
        return std::nullopt;
    return static_cast<std::uint64_t>(number);
}

namespace {

/**
 * Deepest array/object nesting accepted. The parser recurses once per
 * level, so an unbounded input (a user file for terp-stats --from)
 * could otherwise exhaust the stack; the repo's own exports nest at
 * most a handful of levels.
 */
constexpr unsigned maxDepth = 256;

/** Recursive-descent parser over a string + cursor. */
struct Parser
{
    const std::string &s;
    std::size_t i = 0;
    unsigned depth = 0; //!< open arrays/objects around the cursor
    std::string err;

    explicit Parser(const std::string &text) : s(text) {}

    bool
    fail(const std::string &what)
    {
        if (err.empty())
            err = what + " at offset " + std::to_string(i);
        return false;
    }

    void
    skipWs()
    {
        while (i < s.size() &&
               (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                s[i] == '\r'))
            ++i;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (i >= s.size() || s[i] != c)
            return fail(std::string("expected '") + c + "'");
        ++i;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (i >= s.size() || s[i] != '"')
            return fail("expected string");
        ++i;
        out.clear();
        while (i < s.size() && s[i] != '"') {
            char c = s[i++];
            if (c == '\\') {
                if (i >= s.size())
                    return fail("bad escape");
                char e = s[i++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    // One UTF-16 unit as UTF-8. jsonQuoted() emits
                    // \u only for control characters; a surrogate
                    // is not paired, only encoded.
                    for (std::size_t k = 0; k < 4; ++k)
                        if (i + k >= s.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s[i + k])))
                            return fail("bad \\u escape");
                    const auto cp = static_cast<unsigned>(
                        std::stoul(s.substr(i, 4), nullptr, 16));
                    i += 4;
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | cp >> 6);
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | cp >> 12);
                        out += static_cast<char>(0x80 |
                                                 (cp >> 6 & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                  }
                  default: return fail("bad escape");
                }
            } else {
                out += c;
            }
        }
        if (i >= s.size())
            return fail("unterminated string");
        ++i; // closing quote
        return true;
    }

    /** Number per RFC 8259: -?digits(.digits)?([eE][+-]?digits)? */
    bool
    parseNumber(JsonValue &v)
    {
        std::size_t start = i;
        auto digits = [&] {
            std::size_t from = i;
            while (i < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[i])))
                ++i;
            return i > from;
        };
        if (i < s.size() && s[i] == '-')
            ++i;
        if (!digits())
            return fail(i == start ? "unexpected character"
                                   : "expected digit");
        if (i < s.size() && s[i] == '.') {
            ++i;
            if (!digits())
                return fail("expected digit");
        }
        if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
            ++i;
            if (i < s.size() && (s[i] == '-' || s[i] == '+'))
                ++i;
            if (!digits())
                return fail("expected digit");
        }
        v.type = JsonValue::Type::Number;
        v.raw = s.substr(start, i - start);
        v.number = std::strtod(v.raw.c_str(), nullptr);
        return true;
    }

    /** An array or object: bounds the recursion depth. */
    bool
    parseNested(JsonValue &v)
    {
        if (depth == maxDepth)
            return fail("nesting too deep");
        ++depth;
        bool ok = s[i] == '{' ? parseObject(v) : parseArray(v);
        --depth;
        return ok;
    }

    bool
    parseValue(JsonValue &v)
    {
        skipWs();
        if (i >= s.size())
            return fail("unexpected end of input");
        char c = s[i];
        if (c == '{' || c == '[')
            return parseNested(v);
        if (c == '"') {
            v.type = JsonValue::Type::String;
            return parseString(v.str);
        }
        if (s.compare(i, 4, "true") == 0) {
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            i += 4;
            return true;
        }
        if (s.compare(i, 5, "false") == 0) {
            v.type = JsonValue::Type::Bool;
            v.boolean = false;
            i += 5;
            return true;
        }
        if (s.compare(i, 4, "null") == 0) {
            v.type = JsonValue::Type::Null;
            i += 4;
            return true;
        }
        return parseNumber(v);
    }

    bool
    parseObject(JsonValue &v)
    {
        ++i;
        v.type = JsonValue::Type::Object;
        skipWs();
        if (i < s.size() && s[i] == '}') {
            ++i;
            return true;
        }
        for (;;) {
            std::string key;
            if (!parseString(key))
                return false;
            if (!consume(':'))
                return false;
            JsonValue member;
            if (!parseValue(member))
                return false;
            v.object[key] = std::move(member);
            skipWs();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            return consume('}');
        }
    }

    bool
    parseArray(JsonValue &v)
    {
        ++i;
        v.type = JsonValue::Type::Array;
        skipWs();
        if (i < s.size() && s[i] == ']') {
            ++i;
            return true;
        }
        for (;;) {
            JsonValue item;
            if (!parseValue(item))
                return false;
            v.array.push_back(std::move(item));
            skipWs();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            return consume(']');
        }
    }
};

} // namespace

std::unique_ptr<JsonValue>
parseJson(const std::string &text, std::string &error)
{
    Parser p(text);
    auto v = std::make_unique<JsonValue>();
    if (!p.parseValue(*v)) {
        error = p.err.empty() ? "parse error" : p.err;
        return nullptr;
    }
    p.skipWs();
    if (p.i != text.size()) {
        error = "trailing data at offset " + std::to_string(p.i);
        return nullptr;
    }
    error.clear();
    return v;
}

std::string
jsonQuoted(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

} // namespace metrics
} // namespace terp
