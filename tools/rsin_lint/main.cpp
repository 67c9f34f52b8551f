/**
 * @file
 * rsin-lint command-line driver.
 *
 * Usage:
 *   rsin_lint --root <repo>            lint <repo>/{src,bench,examples,
 *                                      tools,tests} as one program
 *   rsin_lint --root <repo> f...       lint the named files only (paths
 *                                      relative to the root decide rule
 *                                      scoping; graph rules see only
 *                                      the named set)
 *   rsin_lint --format=text|json|sarif output format (default text)
 *   rsin_lint --list-rules             print the rule catalog
 *   rsin_lint --schemas FILE           R12 manifest to use instead of
 *                                      <root>/tools/rsin_lint/
 *                                      schemas.json (file mode only;
 *                                      tree mode loads it itself)
 *   rsin_lint --dump-symbols           print the cross-TU symbol index
 *                                      and exit 0
 *   rsin_lint --dump-callgraph         print resolved call edges and
 *                                      worker roots and exit 0
 *   rsin_lint --dump-lockgraph         print the lock-order graph
 *                                      (locks, edges, cycles, worker
 *                                      entry contexts) and exit 0
 *   rsin_lint --timings                print per-phase timings to
 *                                      stderr
 *
 * Every run reads and lints every file; a finding is waived only by an
 * `rsin-lint: allow(<rule>): <reason>` comment next to it.
 *
 * Exit status: 0 clean, 1 findings reported, 2 usage or I/O error.
 * Unreadable files under the tree are reported on stderr and force
 * exit 2 -- a partially linted tree must never look clean.  Registered
 * as a ctest test so `ctest` fails whenever the tree violates a
 * determinism/correctness rule.
 */

#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"
#include "lockflow.hpp"
#include "output.hpp"
#include "symbols.hpp"
#include "xtu_rules.hpp"

namespace {

void
printRules(std::ostream &out)
{
    out << "rsin-lint rules (suppress with "
           "'// rsin-lint: allow(<rule>): <reason>'):\n";
    for (const rsin::lint::RuleInfo &rule : rsin::lint::ruleCatalog())
        out << "  " << rule.id << "  " << rule.summary << "\n";
}

std::string
readFileOr(const std::string &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ok = false;
        return std::string();
    }
    std::ostringstream text;
    text << in.rdbuf();
    ok = true;
    return text.str();
}

void
printTimings(const rsin::lint::LintTimings &timings)
{
    std::cerr << "rsin-lint timings:";
    for (const auto &phase : timings.phases)
        std::cerr << " " << phase.first << "="
                  << static_cast<long long>(std::llround(phase.second))
                  << "ms";
    std::cerr << " total="
              << static_cast<long long>(
                     std::llround(timings.totalMs))
              << "ms\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string format = "text";
    std::string schemasPath;
    bool dumpSymbolsMode = false;
    bool dumpCallGraphMode = false;
    bool dumpLockGraphMode = false;
    bool timingsMode = false;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root") {
            if (i + 1 >= argc) {
                std::cerr << "rsin-lint: --root needs a directory\n";
                return 2;
            }
            root = argv[++i];
        } else if (arg.rfind("--format=", 0) == 0) {
            format = arg.substr(9);
            if (format != "text" && format != "json" &&
                format != "sarif") {
                std::cerr << "rsin-lint: unknown format '" << format
                          << "' (want text, json or sarif)\n";
                return 2;
            }
        } else if (arg == "--schemas") {
            if (i + 1 >= argc) {
                std::cerr << "rsin-lint: --schemas needs a file\n";
                return 2;
            }
            schemasPath = argv[++i];
        } else if (arg == "--dump-symbols") {
            dumpSymbolsMode = true;
        } else if (arg == "--dump-callgraph") {
            dumpCallGraphMode = true;
        } else if (arg == "--dump-lockgraph") {
            dumpLockGraphMode = true;
        } else if (arg == "--timings") {
            timingsMode = true;
        } else if (arg == "--list-rules") {
            printRules(std::cout);
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: rsin_lint [--root DIR] "
                         "[--format=text|json|sarif] [--schemas FILE] "
                         "[--timings] [--dump-symbols] "
                         "[--dump-callgraph] [--dump-lockgraph] "
                         "[--list-rules] [file...]\n";
            printRules(std::cout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "rsin-lint: unknown option " << arg << "\n";
            return 2;
        } else {
            files.push_back(arg);
        }
    }

    try {
        if (dumpSymbolsMode || dumpCallGraphMode ||
            dumpLockGraphMode) {
            // Debug views of the cross-TU layer over the same file
            // set a lint run would see.
            std::vector<rsin::lint::SourceFile> sources;
            if (files.empty()) {
                sources = rsin::lint::collectTree(root);
            } else {
                for (const std::string &file : files) {
                    bool ok = false;
                    std::string content =
                        readFileOr(root + "/" + file, ok);
                    if (!ok) {
                        std::cerr << "rsin-lint: cannot read " << file
                                  << " under " << root << "\n";
                        return 2;
                    }
                    sources.push_back({file, std::move(content)});
                }
            }
            const rsin::lint::Program prog =
                rsin::lint::indexProgram(sources);
            if (dumpSymbolsMode)
                std::cout << rsin::lint::dumpSymbols(prog);
            if (dumpCallGraphMode)
                std::cout << rsin::lint::dumpCallGraph(
                    prog, rsin::lint::analyzeWorkers(prog));
            if (dumpLockGraphMode) {
                const rsin::lint::WorkerAnalysis wa =
                    rsin::lint::analyzeWorkers(prog);
                std::cout << rsin::lint::dumpLockGraph(
                    prog, rsin::lint::analyzeLockFlow(prog, wa));
            }
            return 0;
        }

        std::vector<rsin::lint::Finding> findings;
        bool ioError = false;
        if (files.empty()) {
            rsin::lint::TreeReport report = rsin::lint::lintTree(root);
            findings = std::move(report.findings);
            if (timingsMode)
                printTimings(report.timings);
            for (const std::string &path : report.unreadable) {
                std::cerr << "rsin-lint: cannot read " << path
                          << " under " << root << " (skipped)\n";
                ioError = true;
            }
        } else {
            std::vector<rsin::lint::SourceFile> sources;
            for (const std::string &file : files) {
                bool ok = false;
                std::string content =
                    readFileOr(root + "/" + file, ok);
                if (!ok) {
                    std::cerr << "rsin-lint: cannot read " << file
                              << " under " << root << " (skipped)\n";
                    ioError = true;
                    continue;
                }
                sources.push_back({file, std::move(content)});
            }
            rsin::lint::LintOptions options;
            rsin::lint::SchemaManifest manifest;
            if (!schemasPath.empty()) {
                bool ok = false;
                const std::string text = readFileOr(schemasPath, ok);
                if (!ok) {
                    std::cerr << "rsin-lint: cannot read schemas "
                              << schemasPath << "\n";
                    return 2;
                }
                manifest = rsin::lint::parseSchemaManifest(text);
                options.schemas = &manifest;
            }
            rsin::lint::LintTimings timings;
            if (timingsMode)
                options.timings = &timings;
            findings = rsin::lint::lintFiles(sources, options);
            if (timingsMode) {
                for (const auto &phase : timings.phases)
                    timings.totalMs += phase.second;
                printTimings(timings);
            }
        }

        // Machine formats carry only the findings on stdout; the
        // human summary moves to stderr so the artifact stays valid.
        std::ostream &summary =
            format == "text" ? std::cout : std::cerr;
        if (format == "json")
            std::cout << rsin::lint::formatJson(findings);
        else if (format == "sarif")
            std::cout << rsin::lint::formatSarif(findings);
        else if (!findings.empty())
            std::cout << rsin::lint::formatFindings(findings);

        if (findings.empty())
            summary << "rsin-lint: clean\n";
        else
            summary << "rsin-lint: " << findings.size() << " finding"
                    << (findings.size() == 1 ? "" : "s") << "\n";
        if (ioError)
            return 2;
        return findings.empty() ? 0 : 1;
    } catch (const std::exception &err) {
        std::cerr << err.what() << "\n";
        return 2;
    }
}
