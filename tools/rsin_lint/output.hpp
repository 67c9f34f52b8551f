#pragma once

/**
 * @file
 * Output formats for rsin-lint: the rule catalog and two renderings
 * of a finding list beyond the classic "file:line: [rule] message"
 * text (lint.hpp) -- a JSON array for scripting and SARIF 2.1.0 for
 * GitHub code-scanning annotations.
 */

#include <string>
#include <vector>

#include "lint.hpp"

namespace rsin {
namespace lint {

/** Rule catalog entry (drives --list-rules and the SARIF rules array). */
struct RuleInfo
{
    const char *id;      ///< "R1".."R9", "SUP"
    const char *summary; ///< one-line description
};

/** The full rule catalog in rule-ID order. */
const std::vector<RuleInfo> &ruleCatalog();

/** Findings as a JSON array of {file, line, rule, message}. */
std::string formatJson(const std::vector<Finding> &findings);

/** Findings as a SARIF 2.1.0 log (one run, tool driver "rsin-lint"). */
std::string formatSarif(const std::vector<Finding> &findings);

} // namespace lint
} // namespace rsin
