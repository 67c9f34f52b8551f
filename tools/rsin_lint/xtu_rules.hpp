#pragma once

/**
 * @file
 * The cross-TU rule families built on the symbol index / call graph
 * (symbols.hpp):
 *
 *   R10  write to mutable namespace-scope or static-local state on a
 *        worker-reachable path without lock evidence in the writing
 *        body -- the static sibling of `check.sh tsan`, catching races
 *        TSan only sees when the schedule cooperates.
 *   R11  call to a non-reentrant / environment-mutating function, or a
 *        direct filesystem write not routed through
 *        common::writeFileAtomic, on a worker-reachable path.
 *   R12  serialized-schema drift: the field set a writer emits and its
 *        parser consumes is fingerprinted against the committed
 *        manifest tools/rsin_lint/schemas.json; changing the fields
 *        without bumping the schema version is an error, because it
 *        corrupts every resumable campaign ledger retroactively.
 *
 * R10/R11 never fire inside tests/ (single-threaded by construction);
 * R12 only checks writer/parser pairs the manifest names.
 */

#include <map>
#include <string>
#include <vector>

#include "lint.hpp"
#include "lockflow.hpp"
#include "symbols.hpp"

namespace rsin {
namespace lint {

/** One writer/parser pair pinned by tools/rsin_lint/schemas.json. */
struct SchemaEntry
{
    std::string tag; ///< versioned schema tag, e.g. "rsin.ledger.v1"
    std::string writerFile;
    std::string writerFunction;
    std::string parserFile;
    std::string parserFunction;
    /** Field names both sides must agree on (empty: positional). */
    std::vector<std::string> fields;
    /** Expected word count for positional formats; -1 when n/a. */
    long words = -1;
    /** Text mode: the sides are scripts (shell/python), matched by
     *  raw-text field extraction instead of the token-level scan;
     *  "function" is ignored ("-" by convention). */
    bool textMode = false;
    /** Per-side field overrides for asymmetric pairs (a writer that
     *  emits a subset of what the parser reads); empty means use the
     *  shared `fields` list. */
    std::vector<std::string> writerFields;
    std::vector<std::string> parserFields;
};

/** The parsed schemas.json manifest (schema rsin.lint_schemas.v1). */
struct SchemaManifest
{
    std::vector<SchemaEntry> entries;
};

/**
 * Parse a schemas.json document.  Throws std::runtime_error on
 * malformed JSON, a wrong schema tag, or a structurally incomplete
 * entry -- a silently ignored manifest would turn R12 off.
 */
SchemaManifest parseSchemaManifest(const std::string &json);

/**
 * R10: unsynchronized writes to shared state in worker context.  A
 * write is flagged only when the lock-set analysis @p lf proves the
 * held set empty at the write on some worker-reachable path --
 * entry-context locks from callers count, "a guard somewhere earlier
 * in the body" does not.
 */
std::vector<Finding> checkWorkerState(const Program &prog,
                                      const WorkerAnalysis &wa,
                                      const LockFlow &lf);

/** R11: non-reentrant / unrouted-filesystem calls in worker context. */
std::vector<Finding> checkWorkerCalls(const Program &prog,
                                      const WorkerAnalysis &wa);

/**
 * R12: writer/parser field sets vs the committed schema manifest.
 * Text-mode entries are matched against @p textDocs (repo-relative
 * path -> raw file text, see loadTextDocs()); a text-mode side
 * missing from @p textDocs is itself a finding (manifest rot).
 */
std::vector<Finding>
checkSchemas(const Program &prog, const SchemaManifest &manifest,
             const std::map<std::string, std::string> *textDocs);

/** checkSchemas() with no text docs (token-mode entries only). */
std::vector<Finding> checkSchemas(const Program &prog,
                                  const SchemaManifest &manifest);

/**
 * Read the side files named by @p manifest's text-mode entries from
 * @p root (repo-relative paths).  Unreadable files are simply absent
 * from the map; checkSchemas() reports them.
 */
std::map<std::string, std::string>
loadTextDocs(const std::string &root, const SchemaManifest &manifest);

} // namespace lint
} // namespace rsin
