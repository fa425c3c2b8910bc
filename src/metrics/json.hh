/**
 * @file
 * Minimal JSON reader for terp-stats: enough of RFC 8259 to parse
 * the documents this repo itself emits (metrics exports and
 * BENCH_terp.json), and the one string quoter those documents use. Objects keep insertion order irrelevant — keys
 * land in a sorted map — and numbers are held as double plus the
 * raw text so exact integers survive.
 */

#ifndef TERP_METRICS_JSON_HH
#define TERP_METRICS_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace terp {
namespace metrics {

/** A parsed JSON value. */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string raw;  //!< exact source text of a Number
    std::string str;  //!< a String's content
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isNull() const { return type == Type::Null; }
    bool isObject() const { return type == Type::Object; }
    bool isNumber() const { return type == Type::Number; }

    /** Object member, or null when absent / not an object. */
    const JsonValue *get(const std::string &key) const;

    /**
     * Number as a uint64 count (exact for integer source text), or
     * nullopt when this is not a number or not a whole number in
     * [0, 2^64): negative, fractional, non-finite or too large.
     */
    std::optional<std::uint64_t> asU64() const;
};

/**
 * Parse @p text. Returns null and sets @p error on malformed input;
 * @p error is cleared on success.
 */
std::unique_ptr<JsonValue> parseJson(const std::string &text,
                                     std::string &error);

/**
 * @p s as a JSON string literal, quotes included: `"` and `\`
 * escaped, `\n`, `\r` and `\t` by name, every other control
 * character as `\u00XX`. parseJson() reads it back unchanged.
 */
std::string jsonQuoted(const std::string &s);

} // namespace metrics
} // namespace terp

#endif // TERP_METRICS_JSON_HH
