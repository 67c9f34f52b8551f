#pragma once

/**
 * @file
 * Cross-translation-unit layer of rsin-lint: a whole-program symbol
 * index and call graph built over the code tokens of the linter's one
 * lexer, tokenizeFull(), which also feeds the per-file rules (rules
 * R10-R12).
 *
 * The per-file rules treat each TU as an island; the properties the
 * repo actually promises -- bit-identical parallel execution and
 * byte-exact persisted schemas -- are whole-program properties.  A
 * write that is harmless in serial code becomes a race the moment the
 * function holding it is reachable from a worker thread three calls
 * away in another TU; a JSON key added to a writer corrupts every
 * ledger a parser two files over will ever replay.  This layer models
 * the program, not the lines:
 *
 *  1. **Symbol index** (two-pass: declarations, then bodies): every
 *     free function, member function and lambda with its qualified
 *     name, parameter list and body token range, plus every mutable
 *     namespace-scope variable and function-local static.
 *  2. **Call graph**: call sites resolved against the index --
 *     qualified calls exactly, unqualified calls preferring same-file
 *     then unique-global matches, so one common name cannot fan the
 *     graph out into noise.
 *  3. **Worker roots**: callables handed to spawn primitives
 *     (ThreadPool::submit, Executor::parallelFor, std::thread,
 *     std::async) are worker entry points.  Functions that forward a
 *     callable *parameter* into a spawn site (SweepRunner::run/
 *     runCells) are discovered by fixpoint: any callable passed to
 *     them at any call site is a root too.  Reachability over the call
 *     graph from those roots is "worker context".
 *
 * Everything is lexical (no libclang): overload sets collapse to one
 * node, templates are plain functions, virtual dispatch is name-based.
 * That trades soundness for dependency-free sub-second whole-tree
 * runs, the same trade the per-file rules make -- and the reason the
 * rules built on top (R10/R11) ask for *evidence* rather than proof.
 */

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.hpp"

namespace rsin {
namespace lint {

/** One lexical token with its position (string literals preserved). */
struct FullTok
{
    char kind = 'p';  ///< 'i' ident, 'n' number, 'p' punct, 's' string
    std::string text; ///< for 's': literal contents, escapes raw
    std::size_t line = 0; ///< 1-based
    std::size_t col = 0;  ///< 1-based column of the first character
};

/** One `//` comment: the text from the slashes to the end of line. */
struct LineComment
{
    std::size_t line = 0; ///< 1-based
    std::string text;
};

/** A source file lexed once: everything any rule reads of its text. */
struct Lexed
{
    /** Tokens outside comments and preprocessor directives. */
    std::vector<FullTok> code;
    /** Tokens of preprocessor directives, '#' included; a spliced
     *  (backslash-newline) directive keeps its physical lines. */
    std::vector<FullTok> pp;
    /** Every `//` comment, in source order (suppression directives
     *  live here; block comments never carry them). */
    std::vector<LineComment> comments;
};

/**
 * The linter's one lexer.  Comments are dropped from the token
 * streams, string literals kept as 's' tokens (their contents matter
 * to the schema fingerprinting of R12), char literals dropped.
 */
Lexed tokenizeFull(const std::string &src);

/** A function, member function or lambda in the program. */
struct Symbol
{
    std::string qualified; ///< "rsin::obs::LedgerWriter::append"
    std::string name;      ///< last component ("append", "(lambda@N)")
    std::string file;
    std::size_t line = 0;
    bool isLambda = false;
    int parent = -1; ///< enclosing function for lambdas, else -1
    std::vector<std::string> params; ///< parameter names, in order
    /** Body token range [begin, end) into the file's token stream. */
    std::size_t bodyBegin = 0;
    std::size_t bodyEnd = 0;
};

/** How one argument of a call site can seed the worker analysis. */
struct CallArg
{
    enum class Kind { Lambda, Ident, Other };
    Kind kind = Kind::Other;
    int lambda = -1;   ///< symbol id of an inline lambda literal
    std::string ident; ///< single-identifier argument text
};

/** One call expression inside some function body. */
struct CallSite
{
    int caller = -1;       ///< innermost enclosing symbol id
    std::string name;      ///< callee identifier
    std::string qualifier; ///< "std", "obs::LedgerWriter", ... or ""
    bool memberCall = false; ///< preceded by '.' or '->'
    /** For member calls: the identifier immediately before the '.' /
     *  '->' ("this", "out_", ...), empty when the receiver is a
     *  compound expression.  resolveCall() uses it to reject
     *  `obj.f()` resolving to the *enclosing* class's f -- member
     *  syntax on an explicit non-this receiver targets a different
     *  object (often a std type that merely shares the method name,
     *  e.g. ofstream::close vs LedgerWriter::close). */
    std::string receiver;
    std::string file;
    std::size_t line = 0;
    std::size_t col = 0;
    /** Index of the name token in the file's token stream, so
     *  flow-sensitive passes (lockflow) can ask what program state
     *  holds *at* this call. */
    std::size_t tok = 0;
    std::vector<CallArg> args;
};

/** A mutable namespace-scope variable or function-local static. */
struct GlobalVar
{
    std::string name;
    std::string file;
    std::size_t line = 0;
    bool synchronized = false; ///< std::atomic / mutex-family type
    bool staticLocal = false;  ///< `static` inside a function body
    int owner = -1;            ///< owning symbol for static locals
};

/** The indexed program: every file's symbols, calls and globals. */
struct Program
{
    std::vector<Symbol> symbols;
    std::vector<CallSite> calls;
    std::vector<GlobalVar> globals;
    /** Unqualified name -> symbol ids (overloads collapse). */
    std::map<std::string, std::vector<int>> byName;
    /** Per-file token streams, for the body scans of R10-R12. */
    std::map<std::string, std::vector<FullTok>> tokens;
    /** (enclosing symbol, variable name) -> bound lambda symbol. */
    std::map<std::pair<int, std::string>, int> lambdaVars;
};

/** Build the whole-program index over @p files. */
Program indexProgram(const std::vector<SourceFile> &files);

/**
 * indexProgram() over code token streams the caller already lexed
 * (the lint engine's per-file stage lexes each file and hands the
 * merged map here).  @p tokens must hold one entry per file.
 */
Program indexProgram(const std::vector<SourceFile> &files,
                     std::map<std::string, std::vector<FullTok>> tokens);

/**
 * Resolve @p call to candidate symbol ids: lambda-variable bindings
 * first, then qualified-suffix matches, then same-file preference,
 * then the whole overload set.
 */
std::vector<int> resolveCall(const Program &prog, const CallSite &call);

/** Worker-context analysis: roots, reachability, forwarders. */
struct WorkerAnalysis
{
    std::vector<int> roots;  ///< worker entry-point symbol ids
    std::set<int> reachable; ///< ids reachable from any root
    /** BFS predecessor, for rendering a root -> ... -> f chain. */
    std::map<int, int> parentOf;
    /** Forwarders: symbol id -> parameter indices that reach workers. */
    std::map<int, std::set<std::size_t>> forwarderParams;
};

/** Compute worker roots and the worker-reachable set of @p prog. */
WorkerAnalysis analyzeWorkers(const Program &prog);

/** "rootQualifiedName -> ... -> sym" chain for finding messages. */
std::string workerChain(const Program &prog, const WorkerAnalysis &wa,
                        int sym);

/** Human-readable dump of the symbol index (--dump-symbols). */
std::string dumpSymbols(const Program &prog);

/** Human-readable dump of call edges + worker roots
 *  (--dump-callgraph). */
std::string dumpCallGraph(const Program &prog,
                          const WorkerAnalysis &wa);

} // namespace lint
} // namespace rsin
