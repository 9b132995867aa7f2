#include "telemetry/json_util.hpp"

#include <cctype>
#include <cstdio>
#include <optional>
#include <ostream>
#include <sstream>

#include "simcore/parse_number.hpp"

namespace vpm::telemetry {

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
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
    return out;
}

void
writeJsonEscaped(std::ostream &out, std::string_view s)
{
    for (const char c : s) {
        switch (c) {
          case '"':
            out << "\\\"";
            break;
          case '\\':
            out << "\\\\";
            break;
          case '\n':
            out << "\\n";
            break;
          case '\t':
            out << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out << buf;
            } else {
                out << c;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parser (promoted from bench_report.cpp when the sweep orchestrator needed
// to read manifests and vpm-sweep-1 matrices with the same machinery).

namespace {

class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON value");
        return true;
    }

  private:
    bool
    fail(const char *message)
    {
        if (error_ && error_->empty()) {
            std::ostringstream oss;
            oss << message << " (offset " << pos_ << ")";
            *error_ = oss.str();
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return fail("bad literal");
        pos_ += n;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        }
        return parseNumber(out);
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                const char e = text_[pos_++];
                switch (e) {
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u':
                    if (!parseCodePoint(out))
                        return false;
                    break;
                default: out += e; break;
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    /** Four hex digits at pos_ into @p out. */
    bool
    hex4(unsigned &out)
    {
        if (text_.size() - pos_ < 4)
            return false;
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            const int digit = h >= '0' && h <= '9'   ? h - '0'
                              : h >= 'a' && h <= 'f' ? h - 'a' + 10
                              : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                                     : -1;
            if (digit < 0)
                return false;
            out = out * 16 + static_cast<unsigned>(digit);
        }
        return true;
    }

    /** The code point of a \uXXXX escape (after the 'u'; a surrogate
     *  pair spans two escapes), appended as UTF-8. */
    bool
    parseCodePoint(std::string &out)
    {
        unsigned cp = 0;
        if (!hex4(cp))
            return fail("bad \\u escape");
        if (cp >= 0xDC00 && cp < 0xE000)
            return fail("unpaired surrogate");
        if (cp >= 0xD800 && cp < 0xDC00) {
            unsigned low = 0;
            if (text_.compare(pos_, 2, "\\u") != 0)
                return fail("unpaired surrogate");
            pos_ += 2;
            if (!hex4(low) || low < 0xDC00 || low >= 0xE000)
                return fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        const auto byte = [&out](unsigned b) {
            out += static_cast<char>(static_cast<unsigned char>(b));
        };
        if (cp < 0x80) {
            byte(cp);
        } else if (cp < 0x800) {
            byte(0xC0 | (cp >> 6));
            byte(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            byte(0xE0 | (cp >> 12));
            byte(0x80 | ((cp >> 6) & 0x3F));
            byte(0x80 | (cp & 0x3F));
        } else {
            byte(0xF0 | (cp >> 18));
            byte(0x80 | ((cp >> 12) & 0x3F));
            byte(0x80 | ((cp >> 6) & 0x3F));
            byte(0x80 | (cp & 0x3F));
        }
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            return fail("expected a value");
        // The whole token must be one number: "1-2", "1.2.3" and "7e" are
        // errors, not 1, 1.2 and 7.
        const std::optional<double> number =
            sim::parseNumber(text_.substr(start, pos_ - start).c_str());
        if (!number)
            return fail("bad number");
        out.number = *number;
        out.kind = JsonValue::Kind::Number;
        return true;
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue item;
            skipSpace();
            if (!parseValue(item))
                return false;
            out.array.push_back(std::move(item));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipSpace();
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.object.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string *error)
{
    JsonParser parser(text, error);
    return parser.parse(out);
}

double
numberOr(const JsonValue *value, double fallback)
{
    return value && value->kind == JsonValue::Kind::Number ? value->number
                                                           : fallback;
}

std::string
stringOr(const JsonValue *value, const std::string &fallback)
{
    return value && value->kind == JsonValue::Kind::String ? value->string
                                                           : fallback;
}

bool
boolOr(const JsonValue *value, bool fallback)
{
    return value && value->kind == JsonValue::Kind::Bool ? value->boolean
                                                         : fallback;
}

} // namespace vpm::telemetry
