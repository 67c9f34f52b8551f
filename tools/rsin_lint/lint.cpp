#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "include_graph.hpp"
#include "lockflow.hpp"
#include "symbols.hpp"
#include "xtu_rules.hpp"

namespace rsin {
namespace lint {

namespace {

/** One well-formed `rsin-lint: allow(...)` suppression comment. */
struct Directive
{
    std::size_t line = 0;        ///< line the comment sits on
    std::set<std::string> rules; ///< rules it waives
    bool used = false;           ///< masked a finding this run
};

/**
 * Everything the per-file stage produces for one file.  The graph
 * rules, suppression and R9 consume these; the code tokens go to the
 * cross-TU index separately.
 */
struct FileArtifacts
{
    std::vector<Finding> findings; ///< per-file rule findings, raw
    std::vector<Directive> directives;
    std::vector<Finding> supErrors; ///< malformed suppressions (SUP)
    std::vector<IncludeRef> includes;
};

const std::set<std::string> &
knownRules()
{
    static const std::set<std::string> rules{
        "R1", "R2",  "R3",  "R4",  "R5",  "R6", "R7",
        "R8", "R9", "R10", "R11", "R12", "R13"};
    return rules;
}

/**
 * Parse one line comment for "rsin-lint: allow(R1,R2): reason".  The
 * suppression covers the comment's line and, so directives can sit on
 * their own line above the code they excuse, the following line.
 * Only // comments carry directives: block comments are documentation,
 * which lets this very file show the syntax without suppressing
 * anything.
 */
void
parseDirective(const std::string &comment, std::size_t comment_line,
               const std::string &path, FileArtifacts &out)
{
    const std::string kTag = "rsin-lint:";
    const std::size_t tag = comment.find(kTag);
    if (tag == std::string::npos)
        return;
    std::size_t pos = tag + kTag.size();
    while (pos < comment.size() && comment[pos] == ' ')
        ++pos;
    const std::string kAllow = "allow(";
    if (comment.compare(pos, kAllow.size(), kAllow) != 0) {
        out.supErrors.push_back({path, comment_line, "SUP",
                                 "malformed rsin-lint directive (expected "
                                 "'allow(<rule>): <reason>')"});
        return;
    }
    pos += kAllow.size();
    const std::size_t close = comment.find(')', pos);
    if (close == std::string::npos) {
        out.supErrors.push_back({path, comment_line, "SUP",
                                 "unterminated allow(...) rule list"});
        return;
    }
    // Split the rule list on commas and validate every name.
    std::set<std::string> rules;
    std::string name;
    std::istringstream list(comment.substr(pos, close - pos));
    while (std::getline(list, name, ',')) {
        name.erase(std::remove(name.begin(), name.end(), ' '),
                   name.end());
        if (!knownRules().count(name)) {
            out.supErrors.push_back({path, comment_line, "SUP",
                                     "unknown rule '" + name +
                                         "' in allow()"});
            return;
        }
        rules.insert(name);
    }
    if (rules.empty()) {
        out.supErrors.push_back(
            {path, comment_line, "SUP", "empty allow() rule list"});
        return;
    }
    // The reason is mandatory: ": <non-blank text>" after the ')'.
    std::size_t after = close + 1;
    while (after < comment.size() && comment[after] == ' ')
        ++after;
    bool has_reason = false;
    if (after < comment.size() && comment[after] == ':') {
        for (std::size_t i = after + 1; i < comment.size(); ++i)
            if (!std::isspace(static_cast<unsigned char>(comment[i]))) {
                has_reason = true;
                break;
            }
    }
    if (!has_reason) {
        out.supErrors.push_back(
            {path, comment_line, "SUP",
             "suppression without a reason (write 'rsin-lint: "
             "allow(<rule>): <why the rule does not apply>')"});
        return;
    }
    out.directives.push_back({comment_line, rules, false});
}

/** Directory scoping of the rules, derived from the file's path. */
struct Scope
{
    bool rngImpl = false;        ///< src/common/rng.{cpp,hpp}: R1 home
    bool rngHome = false;        ///< src/common/: R8 does not apply
    bool deterministic = false;  ///< src/{des,rsin,exec,workload}: R2
    bool modelCode = false;      ///< src/: R3, R4
    bool outputLayer = false;    ///< src/common/table.*, src/obs: R4 off
    bool consumer = false;       ///< bench/, examples/: R5
};

bool
pathHas(const std::string &path, const std::string &piece)
{
    const std::size_t at = path.find(piece);
    if (at == std::string::npos)
        return false;
    return at == 0 || path[at - 1] == '/';
}

Scope
classify(const std::string &path)
{
    Scope s;
    s.rngImpl = pathHas(path, "src/common/rng.");
    s.rngHome = pathHas(path, "src/common/");
    s.deterministic = pathHas(path, "src/des/") ||
                      pathHas(path, "src/rsin/") ||
                      pathHas(path, "src/exec/") ||
                      pathHas(path, "src/workload/");
    s.modelCode = pathHas(path, "src/");
    s.outputLayer = pathHas(path, "src/common/table.") ||
                    pathHas(path, "src/obs/");
    s.consumer = pathHas(path, "bench/") || pathHas(path, "examples/");
    return s;
}

// ---------------------------------------------------------------------
// Token-pattern rules R1-R4.
// ---------------------------------------------------------------------

/** What must follow an R1-R4 name on the name's own line. */
enum class Follow
{
    Any,       ///< nothing: the bare name is the violation
    Call,      ///< '(' -- a bare name such as `clock` is harmless
    NullArg,   ///< '(' then nullptr, NULL or 0: time(nullptr)
    StdoutArg, ///< '(' then stdout: fprintf(stdout, ...)
};

/** One identifier the pattern rules look for. */
struct Pattern
{
    const char *name;
    int rule; ///< 1..4
    Follow follow;
    std::string message;
};

/**
 * The R1-R4 patterns.  Hits of one rule on one line are reported in
 * table order, then by column; R3's f-suffixed literals rank after
 * the whole table.
 */
const std::vector<Pattern> &
patterns()
{
    static const std::vector<Pattern> table = [] {
        const std::string r1 =
            ": ambient randomness/wall-clock breaks seed "
            "reproducibility; draw from rsin::Rng (seeded per cell) "
            "instead";
        const auto r2 = [](const char *name) {
            return std::string("std::") + name +
                   " in a determinism-critical directory: iteration "
                   "order varies across standard libraries and hash "
                   "seeds, so any walk over it can reorder results; "
                   "use std::map, std::vector, or sort before "
                   "iterating";
        };
        const std::string r3 =
            " parses single precision; use the double-precision "
            "variant";
        const std::string r4 =
            "() writes stdout from library code; route output "
            "through src/common/table or src/obs";
        return std::vector<Pattern>{
            {"rand", 1, Follow::Call, "rand()" + r1},
            {"srand", 1, Follow::Call, "srand()" + r1},
            {"drand48", 1, Follow::Call, "drand48()" + r1},
            {"random_device", 1, Follow::Any, "std::random_device" + r1},
            {"system_clock", 1, Follow::Any,
             "std::chrono::system_clock" + r1},
            {"getrandom", 1, Follow::Call, "getrandom()" + r1},
            {"clock", 1, Follow::Call, "clock()" + r1},
            {"gettimeofday", 1, Follow::Call, "gettimeofday()" + r1},
            {"time", 1, Follow::NullArg,
             "time(nullptr): wall-clock seeding breaks reproducibility; "
             "derive seeds from the cell coordinates instead"},
            {"unordered_map", 2, Follow::Any, r2("unordered_map")},
            {"unordered_set", 2, Follow::Any, r2("unordered_set")},
            {"unordered_multimap", 2, Follow::Any,
             r2("unordered_multimap")},
            {"unordered_multiset", 2, Follow::Any,
             r2("unordered_multiset")},
            // R3: the numeric model is double end-to-end so the
            // 17-digit round-trip in src/obs is exact.
            {"float", 3, Follow::Any,
             "float type in model code: the simulators and solvers are "
             "double end-to-end (17-significant-digit round-trip); use "
             "double"},
            {"stof", 3, Follow::Any, "stof" + r3},
            {"strtof", 3, Follow::Any, "strtof" + r3},
            {"cout", 4, Follow::Any,
             "std::cout in library code: all table/report output flows "
             "through src/common/table or src/obs so artifacts and "
             "display never diverge"},
            {"printf", 4, Follow::Call, "printf" + r4},
            {"puts", 4, Follow::Call, "puts" + r4},
            {"putchar", 4, Follow::Call, "putchar" + r4},
            {"fprintf", 4, Follow::StdoutArg,
             "fprintf(stdout, ...) in library code; route output "
             "through src/common/table or src/obs"},
        };
    }();
    return table;
}

bool
startsWith(const std::string &text, const char *prefix)
{
    return text.rfind(prefix, 0) == 0;
}

/** Does @p arg, the token after the '(' (null: none on the line),
 *  satisfy @p follow? */
bool
argFits(Follow follow, const FullTok *arg)
{
    if (follow == Follow::NullArg)
        return arg != nullptr &&
               ((arg->kind == 'i' && (startsWith(arg->text, "nullptr") ||
                                      startsWith(arg->text, "NULL"))) ||
                (arg->kind == 'n' && arg->text[0] == '0'));
    if (follow == Follow::StdoutArg)
        return arg != nullptr && arg->kind == 'i' &&
               startsWith(arg->text, "stdout");
    return true;
}

/**
 * R3's literal check: an f-suffixed decimal literal (1.0f, 1.f, 3e8f)
 * narrows to float.  Hex literals (0x1f), suffixed integers (3f is
 * no float literal) and digits continuing a '.'-led literal are not
 * of interest.
 */
bool
narrowsToFloat(const std::vector<FullTok> &toks, std::size_t i)
{
    const FullTok &t = toks[i];
    const FullTok *before = i > 0 ? &toks[i - 1] : nullptr;
    if (before != nullptr && before->kind == 'p' && before->text == "." &&
        before->line == t.line && before->col + 1 == t.col)
        return false;
    const std::string &s = t.text;
    const bool hex =
        s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
    return !hex && (s.back() == 'f' || s.back() == 'F') &&
           s.find_first_of(".eE") != std::string::npos;
}

/** One R1-R4 hit; (rule, line, rank, col) is the report order. */
struct Hit
{
    int rule;
    std::size_t line;
    std::size_t rank; ///< index into patterns()
    std::size_t col;
    std::string message;
};

/**
 * R1-R4 over one token stream of a file.  @p on[r] says whether rule
 * Rr applies to it.
 */
void
scanPatterns(const std::vector<FullTok> &toks,
             const std::array<bool, 5> &on, std::vector<Hit> &hits)
{
    static const std::map<std::string, std::size_t> byName = [] {
        std::map<std::string, std::size_t> index;
        for (std::size_t k = 0; k < patterns().size(); ++k)
            index[patterns()[k].name] = k;
        return index;
    }();
    // The token @p ahead places after @p i, if it is on i's line.
    const auto onLine = [&](std::size_t i,
                            std::size_t ahead) -> const FullTok * {
        const std::size_t k = i + ahead;
        return k < toks.size() && toks[k].line == toks[i].line
                   ? &toks[k]
                   : nullptr;
    };
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const FullTok &t = toks[i];
        if (t.kind == 'n' && on[3] && narrowsToFloat(toks, i))
            hits.push_back({3, t.line, patterns().size(), t.col,
                            "f-suffixed literal '" + t.text +
                                "' narrows to float; drop the suffix"});
        if (t.kind != 'i')
            continue;
        const auto it = byName.find(t.text);
        if (it == byName.end())
            continue;
        const Pattern &p = patterns()[it->second];
        if (!on[static_cast<std::size_t>(p.rule)])
            continue;
        if (p.follow != Follow::Any) {
            const FullTok *open = onLine(i, 1);
            if (open == nullptr || open->kind != 'p' ||
                open->text != "(" || !argFits(p.follow, onLine(i, 2)))
                continue;
        }
        hits.push_back({p.rule, t.line, it->second, t.col, p.message});
    }
}

/**
 * R1 ambient randomness and wall-clock sources, R2 unordered
 * containers in determinism-critical directories, R3 float discipline
 * in model code, R4 stdout writes in library code: token scans over
 * the code and the preprocessor tokens, so a macro body is linted
 * like code.  R2 skips the preprocessor tokens: `#include
 * <unordered_map>` is not a use.
 */
void
patternRules(const Lexed &lexed, const Scope &scope,
             const std::string &path, std::vector<Finding> &out)
{
    std::array<bool, 5> on{false, !scope.rngImpl, false, scope.modelCode,
                           scope.modelCode && !scope.outputLayer};
    std::vector<Hit> hits;
    scanPatterns(lexed.pp, on, hits);
    on[2] = scope.deterministic;
    scanPatterns(lexed.code, on, hits);
    std::sort(hits.begin(), hits.end(), [](const Hit &a, const Hit &b) {
        return std::tie(a.rule, a.line, a.rank, a.col) <
               std::tie(b.rule, b.line, b.rank, b.col);
    });
    for (Hit &h : hits)
        out.push_back({path, h.line,
                       std::string{'R', static_cast<char>('0' + h.rule)},
                       std::move(h.message)});
}

// ---------------------------------------------------------------------
// Scope/branch tracker over the code tokens (rules R5 and R8).
// ---------------------------------------------------------------------

/** Metric fields whose value is NaN/garbage unless status is Ok. */
const std::set<std::string> &
metricFields()
{
    static const std::set<std::string> fields{
        "meanDelay",       "normalizedDelay",    "meanResponse",
        "delayHalfWidth",  "delayP95",           "delayP99",
        "timeAvgQueue",    "fractionNoWait",     "delayImbalance",
        "meanRoutingAttempts", "meanBoxesTraversed",
    };
    return fields;
}

/** Calls whose return value is a SimResult (taint sources for R5). */
const std::set<std::string> &
resultProducers()
{
    static const std::set<std::string> calls{
        "simulate", "simulateReplicated", "aggregateReplications"};
    return calls;
}

bool
isEvidenceAt(const std::vector<FullTok> &toks, std::size_t i)
{
    const FullTok &t = toks[i];
    if (t.kind != 'i')
        return false;
    if (t.text == "status" || t.text == "RunStatus" ||
        t.text == "displayValue" || t.text == "statusToken" ||
        t.text == "saturated" || t.text == "stable")
        return true;
    if (t.text == "ok")
        return i + 1 < toks.size() && toks[i + 1].kind == 'p' &&
               toks[i + 1].text == "(";
    return false;
}

/** Per-brace-scope flow state for R5/R8. */
struct Frame
{
    bool evidence = false;         ///< a RunStatus check reached here
    std::set<std::string> tainted; ///< SimResult variables born here
    std::set<std::string> rngVars; ///< Rng lvalues born here
};

bool
anyFrameHas(const std::vector<Frame> &frames,
            std::set<std::string> Frame::*member, const std::string &name)
{
    for (const Frame &f : frames)
        if ((f.*member).count(name))
            return true;
    return false;
}

/**
 * Flow-sensitive pass: walks the token stream once with a stack of
 * brace scopes.
 *
 * R5 (bench/, examples/): a read of a metric field off a variable
 * known to hold a SimResult (declared `SimResult x` or bound from
 * simulate()/simulateReplicated()/aggregateReplications()) must be
 * *dominated* by status evidence: an ok()/status/RunStatus/
 * displayValue/saturated/stable token earlier in the same scope or an
 * enclosing one, or on the same line.  Evidence inside a nested brace
 * block dies when the block closes, so a check in one branch no longer
 * excuses a read in a sibling branch, and a check in one function no
 * longer excuses a read in the next one -- the failure modes of the
 * old "within 25 lines" heuristic.  Reads off objects that are not
 * simulation results (analytic solutions, accumulators) are no longer
 * flagged at all.
 *
 * R8 (everywhere outside src/common): an Rng received by value,
 * copy-initialized from another Rng, or captured by value in a lambda
 * silently forks the random stream -- both copies replay identical
 * draws, which breaks the independent-stream assumption behind
 * per-cell seeding.  Pass Rng&, move an Rng&&, or derive an
 * independent child with split().
 */
void
flowPass(const std::vector<FullTok> &toks, const Scope &scope,
         const std::string &path, std::vector<Finding> &out)
{
    const bool doR5 = scope.consumer;
    const bool doR8 = !scope.rngHome;
    if (!doR5 && !doR8)
        return;

    // Lines carrying evidence anywhere (for the same-line escape:
    // obs::displayValue(res, res.meanDelay) is a checked render).
    std::set<std::size_t> evidenceLines;
    for (std::size_t i = 0; i < toks.size(); ++i)
        if (isEvidenceAt(toks, i))
            evidenceLines.insert(toks[i].line);

    std::vector<Frame> frames(1);
    const std::size_t n = toks.size();

    auto isPunct = [&](std::size_t i, const char *p) {
        return i < n && toks[i].kind == 'p' && toks[i].text == p;
    };
    auto isIdentTok = [&](std::size_t i) {
        return i < n && toks[i].kind == 'i';
    };

    for (std::size_t i = 0; i < n; ++i) {
        const FullTok &t = toks[i];
        if (t.kind == 'p') {
            if (t.text == "{") {
                frames.emplace_back();
                continue;
            }
            if (t.text == "}") {
                if (frames.size() > 1)
                    frames.pop_back();
                continue;
            }
            // Lambda capture list: '[' not preceded by an expression.
            if (doR8 && t.text == "[") {
                const bool subscript =
                    i > 0 && (toks[i - 1].kind == 'i' ||
                              toks[i - 1].kind == 'n' ||
                              toks[i - 1].text == ")" ||
                              toks[i - 1].text == "]");
                const bool attribute = isPunct(i + 1, "[");
                if (subscript || attribute)
                    continue;
                // Collect the capture items up to the matching ']'.
                std::size_t depth = 0;
                std::size_t j = i + 1;
                std::vector<std::vector<const FullTok *>> items(1);
                for (; j < n; ++j) {
                    if (toks[j].kind == 'p') {
                        const std::string &p = toks[j].text;
                        if (p == "[" || p == "(" || p == "{") {
                            ++depth;
                        } else if (p == ")" || p == "}") {
                            if (depth > 0)
                                --depth;
                        } else if (p == "]") {
                            if (depth == 0)
                                break;
                            --depth;
                        } else if (p == "," && depth == 0) {
                            items.emplace_back();
                            continue;
                        }
                    }
                    items.back().push_back(&toks[j]);
                }
                // A capture list is followed by '(' or '{' (or
                // 'mutable'); anything else is not a lambda.
                const bool lambda =
                    isPunct(j + 1, "(") || isPunct(j + 1, "{") ||
                    (isIdentTok(j + 1) && toks[j + 1].text == "mutable");
                if (!lambda)
                    continue;
                for (const auto &item : items) {
                    if (item.empty() ||
                        (item.front()->kind == 'p' &&
                         item.front()->text == "&"))
                        continue; // by-reference capture: shared stream
                    const FullTok *copied = nullptr;
                    if (item.size() == 1 && item[0]->kind == 'i')
                        copied = item[0];
                    else if (item.size() == 3 && item[0]->kind == 'i' &&
                             item[1]->text == "=" &&
                             item[2]->kind == 'i')
                        copied = item[2];
                    if (copied &&
                        anyFrameHas(frames, &Frame::rngVars,
                                    copied->text))
                        out.push_back(
                            {path, copied->line, "R8",
                             "lambda captures Rng '" + copied->text +
                                 "' by value, forking its stream: the "
                                 "copy replays the captured "
                                 "generator's draws; capture by "
                                 "reference [&" + copied->text +
                                 "] or move in an independent "
                                 "split() child"});
                }
                continue;
            }
            continue;
        }

        if (isEvidenceAt(toks, i)) {
            frames.back().evidence = true;
            continue;
        }

        // --- R8: Rng declarations, by-value parameters, copies. ---
        if (doR8 && t.kind == 'i' && t.text == "Rng") {
            std::size_t j = i + 1;
            if (isPunct(j, "&") || isPunct(j, "*")) {
                while (isPunct(j, "&") || isPunct(j, "*") ||
                       (isIdentTok(j) && toks[j].text == "const"))
                    ++j;
                if (isIdentTok(j))
                    frames.back().rngVars.insert(toks[j].text);
                continue;
            }
            if (isPunct(j, ",") || isPunct(j, ")")) {
                // Unnamed by-value parameter: void f(Rng).
                out.push_back(
                    {path, t.line, "R8",
                     "Rng passed by value forks the random stream "
                     "(caller and callee replay identical draws); "
                     "take Rng& for a shared stream, Rng&& + move "
                     "for a handoff, or an explicit split() child"});
                continue;
            }
            if (!isIdentTok(j))
                continue;
            const FullTok &name = toks[j];
            frames.back().rngVars.insert(name.text);
            if (isPunct(j + 1, ",") || isPunct(j + 1, ")")) {
                out.push_back(
                    {path, name.line, "R8",
                     "Rng parameter '" + name.text +
                         "' is received by value, forking the "
                         "caller's stream (both replay identical "
                         "draws); take Rng& for a shared stream, "
                         "Rng&& + std::move for a handoff, or an "
                         "explicit split() child"});
                continue;
            }
            if (isPunct(j + 1, "=") && isIdentTok(j + 2) &&
                isPunct(j + 3, ";") &&
                anyFrameHas(frames, &Frame::rngVars, toks[j + 2].text)) {
                out.push_back(
                    {path, name.line, "R8",
                     "Rng '" + name.text + "' copy-initialized from '" +
                         toks[j + 2].text +
                         "' forks the stream: both replay identical "
                         "draws; use " + toks[j + 2].text +
                         ".split() for an independent child"});
                continue;
            }
            if ((isPunct(j + 1, "(") || isPunct(j + 1, "{")) &&
                isIdentTok(j + 2) &&
                (isPunct(j + 3, ")") || isPunct(j + 3, "}")) &&
                anyFrameHas(frames, &Frame::rngVars, toks[j + 2].text)) {
                out.push_back(
                    {path, name.line, "R8",
                     "Rng '" + name.text + "' copy-constructed from '" +
                         toks[j + 2].text +
                         "' forks the stream: both replay identical "
                         "draws; use " + toks[j + 2].text +
                         ".split() for an independent child"});
                continue;
            }
            continue;
        }

        if (!doR5)
            continue;

        // --- R5: taint declarations. ---
        if (t.kind == 'i' && t.text == "SimResult") {
            std::size_t j = i + 1;
            while (isPunct(j, "&"))
                ++j;
            if (isIdentTok(j) &&
                (isPunct(j + 1, ";") || isPunct(j + 1, "=")))
                frames.back().tainted.insert(toks[j].text);
            continue;
        }
        if (t.kind == 'i' && t.text == "auto") {
            std::size_t j = i + 1;
            while (isPunct(j, "&") || isPunct(j, "*"))
                ++j;
            if (!isIdentTok(j) || !isPunct(j + 1, "="))
                continue;
            // Does the initializer call a SimResult producer?
            for (std::size_t k = j + 2; k < n && k < j + 64; ++k) {
                if (toks[k].kind == 'p' && toks[k].text == ";")
                    break;
                if (toks[k].kind == 'i' &&
                    resultProducers().count(toks[k].text) &&
                    isPunct(k + 1, "(")) {
                    frames.back().tainted.insert(toks[j].text);
                    break;
                }
            }
            continue;
        }

        // --- R5: metric reads. ---
        if (t.kind == 'i' && metricFields().count(t.text) && i > 0 &&
            isPunct(i - 1, ".")) {
            // Receiver: the token before the '.'.
            bool taintedRead = false;
            if (i >= 2 && toks[i - 2].kind == 'i') {
                taintedRead = anyFrameHas(frames, &Frame::tainted,
                                          toks[i - 2].text);
            } else if (i >= 2 && isPunct(i - 2, ")")) {
                // simulate(...).meanDelay -- walk back to the call
                // head through the balanced parens.
                std::size_t depth = 1;
                std::size_t k = i - 2;
                while (k > 0 && depth > 0) {
                    --k;
                    if (isPunct(k, ")"))
                        ++depth;
                    else if (isPunct(k, "("))
                        --depth;
                }
                if (depth == 0 && k > 0 && toks[k - 1].kind == 'i')
                    taintedRead =
                        resultProducers().count(toks[k - 1].text) > 0;
            }
            if (!taintedRead)
                continue;
            // Writes produce, they do not consume.
            if (isPunct(i + 1, "=") && !isPunct(i + 2, "="))
                continue;
            bool covered = evidenceLines.count(t.line) > 0;
            for (const Frame &f : frames)
                covered = covered || f.evidence;
            if (!covered)
                out.push_back(
                    {path, t.line, "R5",
                     std::string(".") + t.text +
                         " read not dominated by a RunStatus check: "
                         "anything but RunStatus::Ok means the "
                         "estimate is NaN or untrustworthy; test "
                         "res.ok() (or render via obs::displayValue) "
                         "in this scope or an enclosing one first"});
        }
    }
}

/**
 * Drop findings masked by a directive (marking it used); keep the
 * rest.  A directive covers its own line and the next one.
 */
void
applySuppressions(const std::vector<SourceFile> &files,
                  std::vector<FileArtifacts> &artifacts,
                  std::vector<Finding> &findings)
{
    std::map<std::string, FileArtifacts *> byPath;
    for (std::size_t i = 0; i < files.size(); ++i)
        byPath[files[i].path] = &artifacts[i];
    std::vector<Finding> kept;
    for (Finding &f : findings) {
        const auto it = byPath.find(f.file);
        bool masked = false;
        if (it != byPath.end()) {
            for (Directive &d : it->second->directives) {
                if ((f.line == d.line || f.line == d.line + 1) &&
                    d.rules.count(f.rule)) {
                    d.used = true;
                    masked = true;
                    break;
                }
            }
        }
        if (!masked)
            kept.push_back(std::move(f));
    }
    findings = std::move(kept);
}

/** Milliseconds between two steady-clock points. */
double
msBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * The per-file rules, suppression directives and includes of one
 * file, all read off its one lexer pass.
 */
FileArtifacts
analyzeFile(const std::string &path, const Lexed &lexed)
{
    FileArtifacts fa;
    const Scope scope = classify(path);
    patternRules(lexed, scope, path, fa.findings);
    flowPass(lexed.code, scope, path, fa.findings);
    for (const LineComment &comment : lexed.comments)
        parseDirective(comment.text, comment.line, path, fa);
    fa.includes = extractIncludes(path, lexed.pp);
    return fa;
}

} // namespace

std::vector<Finding>
lintFiles(const std::vector<SourceFile> &files,
          const LintOptions &options)
{
    using Clock = std::chrono::steady_clock;
    const auto mark = [&](const char *phase, Clock::time_point since) {
        if (options.timings != nullptr)
            options.timings->phases.emplace_back(
                phase, msBetween(since, Clock::now()));
    };

    // --- Per-file stage: lex each file once, run the per-file rules
    // on the result and keep its code tokens for the cross-TU stages
    // below.
    Clock::time_point t0 = Clock::now();
    std::vector<FileArtifacts> artifacts(files.size());
    std::vector<std::vector<FullTok>> toks(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        Lexed lexed = tokenizeFull(files[i].content);
        artifacts[i] = analyzeFile(files[i].path, lexed);
        toks[i] = std::move(lexed.code);
    }
    mark("perfile", t0);

    // --- Include-graph rules over the merged per-file artifacts.
    t0 = Clock::now();
    std::vector<IncludeRef> includes;
    std::set<std::string> fileSet;
    for (std::size_t i = 0; i < files.size(); ++i) {
        includes.insert(includes.end(),
                        artifacts[i].includes.begin(),
                        artifacts[i].includes.end());
        fileSet.insert(files[i].path);
    }
    std::vector<Finding> findings;
    for (std::size_t i = 0; i < files.size(); ++i)
        findings.insert(findings.end(),
                        artifacts[i].findings.begin(),
                        artifacts[i].findings.end());
    for (std::vector<Finding> graph :
         {checkLayering(includes, fileSet),
          checkCycles(includes, fileSet)})
        findings.insert(findings.end(),
                        std::make_move_iterator(graph.begin()),
                        std::make_move_iterator(graph.end()));
    mark("graph", t0);

    // --- Cross-TU pass: one program over the whole file set.  The
    // findings join the stream *before* suppression so allow(R10..)
    // directives and the stale check apply to them like any rule.
    t0 = Clock::now();
    std::map<std::string, std::vector<FullTok>> tokenMap;
    for (std::size_t i = 0; i < files.size(); ++i)
        tokenMap[files[i].path] = std::move(toks[i]);
    const Program prog = indexProgram(files, std::move(tokenMap));
    const WorkerAnalysis wa = analyzeWorkers(prog);
    const LockFlow lf = analyzeLockFlow(prog, wa);
    mark("index", t0);

    t0 = Clock::now();
    for (std::vector<Finding> xtu :
         {checkWorkerState(prog, wa, lf), checkWorkerCalls(prog, wa),
          checkLockOrder(prog, lf),
          options.schemas
              ? checkSchemas(prog, *options.schemas,
                             options.textDocs)
              : std::vector<Finding>{}})
        findings.insert(findings.end(),
                        std::make_move_iterator(xtu.begin()),
                        std::make_move_iterator(xtu.end()));

    applySuppressions(files, artifacts, findings);

    // R9: directives that masked nothing are dead weight -- and often
    // the footprint of a fixed bug whose waiver should go too.
    std::vector<Finding> stale;
    for (std::size_t i = 0; i < files.size(); ++i) {
        for (const Directive &d : artifacts[i].directives) {
            if (d.used)
                continue;
            std::string rules;
            for (const std::string &r : d.rules)
                rules += (rules.empty() ? "" : ",") + r;
            stale.push_back(
                {files[i].path, d.line, "R9",
                 "stale suppression: allow(" + rules +
                     ") masks no finding on this or the next line; "
                     "delete it (or re-justify it against a real "
                     "violation)"});
        }
    }
    applySuppressions(files, artifacts, stale);
    findings.insert(findings.end(),
                    std::make_move_iterator(stale.begin()),
                    std::make_move_iterator(stale.end()));

    // Malformed directives always survive.
    for (const FileArtifacts &fa : artifacts)
        findings.insert(findings.end(), fa.supErrors.begin(),
                        fa.supErrors.end());

    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    mark("rules", t0);
    return findings;
}

std::vector<Finding>
lintFiles(const std::vector<SourceFile> &files)
{
    return lintFiles(files, LintOptions{});
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content)
{
    return lintFiles({{path, content}});
}

namespace {

/** Sorted repo-relative paths of the tree's lintable files. */
std::vector<std::string>
treePaths(const std::string &root)
{
    namespace fs = std::filesystem;
    static const char *kSubtrees[] = {"src", "bench", "examples",
                                      "tools", "tests"};
    std::vector<std::string> paths;
    bool any = false;
    for (const char *subtree : kSubtrees) {
        const fs::path dir = fs::path(root) / subtree;
        if (!fs::is_directory(dir))
            continue;
        any = true;
        for (const auto &entry : fs::recursive_directory_iterator(dir)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".cpp" && ext != ".hpp" && ext != ".h")
                continue;
            const std::string rel =
                fs::relative(entry.path(), root).generic_string();
            // Fixtures violate the rules on purpose.
            if (rel.find("lint_fixtures/") != std::string::npos)
                continue;
            paths.push_back(rel);
        }
    }
    if (!any)
        throw std::runtime_error("rsin-lint: no src/, bench/, "
                                 "examples/, tools/ or tests/ under "
                                 "root '" + root + "'");
    std::sort(paths.begin(), paths.end());
    return paths;
}

} // namespace

std::vector<SourceFile>
collectTree(const std::string &root, std::vector<std::string> *unreadable)
{
    namespace fs = std::filesystem;
    std::vector<SourceFile> files;
    for (const std::string &path : treePaths(root)) {
        std::ifstream in(fs::path(root) / path, std::ios::binary);
        if (!in) {
            if (unreadable != nullptr)
                unreadable->push_back(path);
            continue;
        }
        std::ostringstream text;
        text << in.rdbuf();
        files.push_back({path, text.str()});
    }
    return files;
}

TreeReport
lintTree(const std::string &root)
{
    namespace fs = std::filesystem;
    using Clock = std::chrono::steady_clock;
    TreeReport report;
    const Clock::time_point start = Clock::now();
    const std::vector<SourceFile> files =
        collectTree(root, &report.unreadable);

    LintOptions options;
    SchemaManifest manifest;
    const fs::path schemasPath =
        fs::path(root) / "tools" / "rsin_lint" / "schemas.json";
    if (fs::is_regular_file(schemasPath)) {
        std::ifstream in(schemasPath, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        manifest = parseSchemaManifest(text.str());
        options.schemas = &manifest;
    }
    const std::map<std::string, std::string> textDocs =
        loadTextDocs(root, manifest);
    options.textDocs = &textDocs;
    options.timings = &report.timings;
    report.timings.phases.emplace_back("collect",
                                       msBetween(start, Clock::now()));

    report.findings = lintFiles(files, options);
    report.timings.totalMs = msBetween(start, Clock::now());
    return report;
}

std::string
formatFindings(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    for (const Finding &f : findings)
        out << f.file << ":" << f.line << ": [" << f.rule << "] "
            << f.message << "\n";
    return out.str();
}

} // namespace lint
} // namespace rsin
