#pragma once

/**
 * @file
 * Small string helpers used by configuration parsing and bench output.
 */

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rsin {

/** Strip leading and trailing whitespace. */
std::string trim(std::string_view s);

/** Split on a delimiter character; empty fields are preserved. */
std::vector<std::string> split(std::string_view s, char delim);

/** Case-insensitive equality for ASCII strings. */
bool iequals(std::string_view a, std::string_view b);

/** Upper-case an ASCII string. */
std::string toUpper(std::string_view s);

/**
 * Quote one CSV field per RFC 4180: returned verbatim unless it
 * contains a comma, double quote, CR or LF, in which case it is
 * wrapped in double quotes with embedded quotes doubled.  Every CSV
 * emitter in the tree must route fields through this helper --
 * campaign matrices carry user-supplied scheduler/workload names, so
 * "no special characters" can never be assumed.
 */
std::string csvQuote(std::string_view field);

/**
 * Split one RFC 4180 CSV record into its fields, undoing csvQuote
 * (quoted fields may contain commas, doubled quotes and newlines).
 * The inverse of joining csvQuote()d fields with ','.
 */
std::vector<std::string> csvSplit(std::string_view row);

/** Parse a non-negative integer; nullopt on malformed input. */
std::optional<long> parseLong(std::string_view s);

/** Parse a finite double; nullopt on malformed input, nan, inf or a
 *  literal that overflows. */
std::optional<double> parseDouble(std::string_view s);

/** printf-style formatting into a std::string. */
std::string formatf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace rsin
