#include "text.hpp"

#include <cctype>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace rsin {

std::string
trim(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return std::string(s.substr(b, e - b));
}

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::toupper(static_cast<unsigned char>(a[i])) !=
            std::toupper(static_cast<unsigned char>(b[i])))
            return false;
    }
    return true;
}

std::string
toUpper(std::string_view s)
{
    std::string out(s);
    for (auto &c : out)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return out;
}

std::string
csvQuote(std::string_view field)
{
    if (field.find_first_of(",\"\n\r") == std::string_view::npos)
        return std::string(field);
    std::string out;
    out.reserve(field.size() + 2);
    out += '"';
    for (const char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::vector<std::string>
csvSplit(std::string_view row)
{
    std::vector<std::string> fields;
    std::string current;
    bool quoted = false;
    for (std::size_t i = 0; i < row.size(); ++i) {
        const char c = row[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < row.size() && row[i + 1] == '"') {
                    current += '"'; // doubled quote inside a field
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                current += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(std::move(current));
            current.clear();
        } else {
            current += c;
        }
    }
    fields.push_back(std::move(current));
    return fields;
}

std::optional<long>
parseLong(std::string_view s)
{
    const std::string t = trim(s);
    if (t.empty())
        return std::nullopt;
    char *end = nullptr;
    const long v = std::strtol(t.c_str(), &end, 10);
    if (end != t.c_str() + t.size())
        return std::nullopt;
    return v;
}

std::optional<double>
parseDouble(std::string_view s)
{
    const std::string t = trim(s);
    if (t.empty())
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    // strtod also reads "nan", "inf" and overflowing literals (as
    // +-HUGE_VAL); no number this program takes may be non-finite.
    if (end != t.c_str() + t.size() || !std::isfinite(v))
        return std::nullopt;
    return v;
}

std::string
formatf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args2;
    va_copy(args2, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    }
    va_end(args2);
    return out;
}

} // namespace rsin
