#pragma once

/**
 * @file
 * A deliberately tiny JSON reader for the linter's one config file,
 * the serialized-schema manifest (tools/rsin_lint/schemas.json).
 *
 * The linter must stay dependency-free (it lints the tree that builds
 * it), so this is the whole parser: objects, arrays, strings with the
 * escapes the emitters use, numbers as double.  Malformed input throws
 * std::runtime_error with a byte offset -- a silently ignored config
 * file would turn the checks it drives off.
 */

#include <cctype>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace rsin {
namespace lint {

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;
};

class JsonReader
{
  public:
    /** @param what label used in parse-error messages ("schemas"). */
    JsonReader(const std::string &text, const char *what)
        : text_(text), what_(what)
    {
    }

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipSpace();
        if (at_ != text_.size())
            fail("trailing content after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw std::runtime_error(std::string(what_) +
                                 " JSON parse error at byte " +
                                 std::to_string(at_) + ": " + msg);
    }

    void
    skipSpace()
    {
        while (at_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[at_])))
            ++at_;
    }

    char
    peek()
    {
        skipSpace();
        if (at_ >= text_.size())
            fail("unexpected end of input");
        return text_[at_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++at_;
    }

    JsonValue
    value()
    {
        const char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.string = string();
            return v;
        }
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n') {
            literal("null");
            return JsonValue{};
        }
        return number();
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++at_)
            if (at_ >= text_.size() || text_[at_] != *p)
                fail(std::string("expected '") + word + "'");
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (text_[at_] == 't') {
            literal("true");
            v.boolean = true;
        } else {
            literal("false");
        }
        return v;
    }

    JsonValue
    number()
    {
        const std::size_t start = at_;
        if (at_ < text_.size() &&
            (text_[at_] == '-' || text_[at_] == '+'))
            ++at_;
        while (at_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
                text_[at_] == '.' || text_[at_] == 'e' ||
                text_[at_] == 'E' || text_[at_] == '-' ||
                text_[at_] == '+'))
            ++at_;
        if (at_ == start)
            fail("expected a number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        try {
            v.number = std::stod(text_.substr(start, at_ - start));
        } catch (const std::exception &) {
            fail("malformed number");
        }
        return v;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (at_ < text_.size() && text_[at_] != '"') {
            char c = text_[at_++];
            if (c == '\\') {
                if (at_ >= text_.size())
                    fail("dangling escape");
                const char esc = text_[at_++];
                switch (esc) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case '/': c = '/'; break;
                  default:
                    fail("unsupported escape in string");
                }
            }
            out.push_back(c);
        }
        if (at_ >= text_.size())
            fail("unterminated string");
        ++at_; // closing quote
        return out;
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++at_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            const char c = peek();
            ++at_;
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++at_;
            return v;
        }
        while (true) {
            peek();
            std::string key = string();
            expect(':');
            v.object[key] = value();
            const char c = peek();
            ++at_;
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    const std::string &text_;
    const char *what_;
    std::size_t at_ = 0;
};

} // namespace lint
} // namespace rsin
