#include "args.hpp"

#include <cstdlib>
#include <iostream>
#include <thread>

#include "error.hpp"
#include "text.hpp"

namespace rsin {

ArgParser::ArgParser(int argc, const char *const *argv,
                     std::set<std::string> flag_names,
                     std::set<std::string> option_names)
{
    RSIN_REQUIRE(argc >= 1, "ArgParser: empty argv");
    program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string token = argv[i];
        if (token.rfind("--", 0) != 0) {
            positional_.push_back(std::move(token));
            continue;
        }
        std::string name = token.substr(2);
        std::string value;
        bool has_value = false;
        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        if (flag_names.count(name)) {
            RSIN_REQUIRE(!has_value, "ArgParser: flag --", name,
                         " takes no value");
            flagsSeen_.insert(name);
            continue;
        }
        RSIN_REQUIRE(option_names.count(name),
                     "ArgParser: unknown option --", name);
        if (!has_value) {
            RSIN_REQUIRE(i + 1 < argc, "ArgParser: option --", name,
                         " needs a value");
            value = argv[++i];
        }
        options_[name] = std::move(value);
    }
}

bool
ArgParser::flag(const std::string &name) const
{
    return flagsSeen_.count(name) > 0;
}

std::string
ArgParser::get(const std::string &name, const std::string &fallback) const
{
    const auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
}

double
ArgParser::getDouble(const std::string &name, double fallback) const
{
    const auto it = options_.find(name);
    if (it == options_.end())
        return fallback;
    const auto parsed = parseDouble(it->second);
    RSIN_REQUIRE(parsed.has_value(), "ArgParser: --", name,
                 " expects a number, got '", it->second, "'");
    return *parsed;
}

long
ArgParser::getLong(const std::string &name, long fallback) const
{
    const auto it = options_.find(name);
    if (it == options_.end())
        return fallback;
    const auto parsed = parseLong(it->second);
    RSIN_REQUIRE(parsed.has_value(), "ArgParser: --", name,
                 " expects an integer, got '", it->second, "'");
    return *parsed;
}

std::size_t
ArgParser::getCount(const std::string &name, std::size_t fallback) const
{
    const long raw = getLong(name, static_cast<long>(fallback));
    RSIN_REQUIRE(raw >= 1, "ArgParser: --", name, " must be >= 1, got ",
                 raw);
    return static_cast<std::size_t>(raw);
}

std::size_t
ArgParser::resolveJobs(long jobs)
{
    // Negative counts must not silently fall through (or, for callers
    // that cast, wrap through std::size_t into an absurd pool size).
    RSIN_REQUIRE(jobs >= 0, "jobs count must be >= 0 "
                 "(0 means all hardware threads), got ", jobs);
    if (jobs > 0)
        return static_cast<std::size_t>(jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t
ArgParser::getShards(const std::string &name, long fallback) const
{
    const long raw = getLong(name, fallback);
    RSIN_REQUIRE(raw >= 0, "ArgParser: --", name,
                 " must be >= 0 (0 means auto: one shard per worker "
                 "of the pool driving the run; 1 is the serial "
                 "calendar), got ", raw);
    return static_cast<std::size_t>(raw);
}

std::size_t
ArgParser::getJobs(const std::string &name, long fallback) const
{
    const long raw = getLong(name, fallback);
    RSIN_REQUIRE(raw >= 0, "ArgParser: --", name,
                 " must be >= 0 (0 means all hardware threads), got ",
                 raw);
    return resolveJobs(raw);
}

void
exitOnBadArgs(const char *argv0, const std::string &message)
{
    const std::string path = argv0;
    const std::string prog = path.substr(path.rfind('/') + 1); // basename
    std::cerr << prog << ": " << message << "\n";
    std::exit(1);
}

void
requireNoArgs(int argc, const char *const *argv)
{
    if (argc >= 2)
        exitOnBadArgs(argv[0], std::string("unexpected argument '") +
                                   argv[1] + "' (this program takes none)");
}

} // namespace rsin
