/**
 * @file
 * The one JSON escaper and the one JSON mini-parser shared by every
 * telemetry reader/writer.
 *
 * All three JSON writers (journal/Chrome-trace export, profiler reports,
 * bench reports) used to carry their own escape helpers, and two of them
 * silently replaced control characters with spaces — lossy, and in the
 * profiler's case emitted labels Perfetto could not round-trip. Escaping
 * lives here exactly once: `"` and `\` are backslash-escaped, newline and
 * tab use their two-character forms, and every other control character
 * below 0x20 becomes a \u00xx escape, which is the minimal set RFC 8259
 * requires for valid JSON.
 *
 * The parser started life inside bench_report.cpp; the sweep orchestrator
 * (manifests, vpm-sweep-1 matrices) needed the same machinery, so it was
 * promoted here. It is deliberately minimal: objects, arrays, strings,
 * numbers, bools, null — enough for our own schemas plus unknown-field
 * tolerance, with no allocation tricks and positions in error messages.
 */

#ifndef VPM_TELEMETRY_JSON_UTIL_HPP
#define VPM_TELEMETRY_JSON_UTIL_HPP

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vpm::telemetry {

/** Escaped form of @p s for a JSON string literal (no surrounding quotes). */
std::string jsonEscape(std::string_view s);

/** Stream jsonEscape(s) without building the intermediate string. */
void writeJsonEscaped(std::ostream &out, std::string_view s);

/**
 * A parsed JSON document node. Object member order is preserved
 * (insertion-ordered vector of pairs, not a map) so round-trips keep
 * files diffable.
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Member lookup on an object node; nullptr when absent. */
    const JsonValue *find(const std::string &key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }

    /** Member lookup that also wants @p kind; nullptr when absent or of
     *  another kind. */
    const JsonValue *find(const std::string &key, Kind want) const
    {
        const JsonValue *v = find(key);
        return v != nullptr && v->kind == want ? v : nullptr;
    }

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
};

/**
 * Parse @p text as one complete JSON document.
 * @return false with @p error set (byte offset included) on malformed
 *         input or trailing garbage.
 */
bool parseJson(const std::string &text, JsonValue &out, std::string *error);

/** @name Typed field access with fallbacks (nullptr-tolerant)
 *  The accessors take the result of JsonValue::find() directly, so
 *  `numberOr(obj.find("x"), 0.0)` reads a field in one line whether or
 *  not it exists or has the right type. */
///@{
double numberOr(const JsonValue *value, double fallback);
std::string stringOr(const JsonValue *value, const std::string &fallback);
bool boolOr(const JsonValue *value, bool fallback);
///@}

} // namespace vpm::telemetry

#endif // VPM_TELEMETRY_JSON_UTIL_HPP
