#pragma once

/**
 * @file
 * Minimal command-line argument parser for the example tools.
 *
 * Supports "--name value", "--name=value" and boolean "--flag" forms,
 * plus positional arguments.  Unknown options raise FatalError so
 * typos surface instead of being ignored.
 */

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace rsin {

/** Parsed command line with typed accessors. */
class ArgParser
{
  public:
    /**
     * @param flag_names options that take no value ("--verbose")
     * @param option_names options that take one value ("--rho 0.5")
     */
    ArgParser(int argc, const char *const *argv,
              std::set<std::string> flag_names,
              std::set<std::string> option_names);

    bool flag(const std::string &name) const;

    /** String option; @p fallback when absent. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** Double option; throws FatalError on malformed numbers. */
    double getDouble(const std::string &name, double fallback) const;

    /** Integer option; throws FatalError on malformed numbers. */
    long getLong(const std::string &name, long fallback) const;

    /**
     * Worker count from a "--jobs N" style option: N >= 1 is taken
     * literally, 0 (or an absent option with @p fallback 0) means one
     * worker per hardware thread.
     */
    std::size_t getJobs(const std::string &name = "jobs",
                        long fallback = 0) const;

    /** Resolve a raw jobs value (0 -> hardware concurrency, min 1). */
    static std::size_t resolveJobs(long jobs);

    /**
     * Shard count from a "--shards P" style option, preserving the
     * SimOptions convention everywhere: the default 1 is the serial
     * calendar, 0 means "auto" and is passed through UNresolved so the
     * run layer can size it against the executor actually driving the
     * shards (hardware threads only when no pool exists), and P > 1 is
     * an explicit request.  Rejects negative values.  Every tool with
     * a --shards option must parse it through here so the flag means
     * the same thing in rsin_sweep, the figure benches and the
     * campaign runner.
     */
    std::size_t getShards(const std::string &name = "shards",
                          long fallback = 1) const;

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    const std::string &program() const { return program_; }

  private:
    std::string program_;
    std::set<std::string> flagsSeen_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

/**
 * Reject a bad command line: print "<prog>: <message>" to stderr, prog
 * being the basename of @p argv0, and exit 1.
 */
[[noreturn]] void exitOnBadArgs(const char *argv0,
                                const std::string &message);

/**
 * The command-line check of a program that takes no arguments: given
 * any, print "<prog>: unexpected argument '<arg>' (this program takes
 * none)" to stderr and exit 1, so a typo or a flag meant for another
 * bench never runs the whole program silently.
 */
void requireNoArgs(int argc, const char *const *argv);

} // namespace rsin
